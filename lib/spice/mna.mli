(** Modified nodal analysis: system layout and matrix stamping.

    Unknown vector layout: entries [0 .. n_nodes-1] are the voltages of nodes
    [1 .. n_nodes] (ground is eliminated), followed by one branch current per
    voltage source, in device order. *)

type layout

val layout : Circuit.t -> layout
(** The unknown layout of the circuit as it is now, with its structural
    issues ({!dc_issues}, {!ac_issues}) found once. *)

val size : layout -> int

val n_nodes : layout -> int

val dc_issues : layout -> Circuit.t -> Topology.issue list
(** [Topology.dc_issues circuit], found once when the layout was built
    from [circuit]; for a circuit the layout was not built from (or one
    that gained a device since) it is computed afresh. *)

val ac_issues : layout -> Circuit.t -> Topology.issue list
(** [Topology.ac_issues circuit], cached the same way. *)

val branch_index : layout -> string -> int
(** Unknown-vector index of the branch current of the named voltage source.
    @raise Not_found if there is no such source. *)

val voltage : Yield_numeric.Vec.t -> Device.node -> float
(** Node voltage under the layout convention; ground reads 0. *)

(** {1 Per-sample model overrides}

    Every Monte Carlo sample is evaluated this way: the circuit is
    instantiated once per design point and each sample patches device
    models instead of rebuilding the circuit (baking the models into a
    rebuilt circuit survives only as the tests' oracle,
    [Yield_process.Variation.apply_overrides]).  [models.(di)] (indexed by position in [Circuit.devices])
    replaces the MOSFET model of that device when [Some]; [None] slots — and
    an absent array — mean the nominal model baked into the circuit. *)

type models = Mosfet.model option array

val model_override : models option -> int -> Mosfet.model -> Mosfet.model
(** [model_override models di nominal] resolves the effective model of
    device index [di]. *)

(** {1 Sessions} *)

type sys = layout
(** The per-topology state a solve carries between samples: only the
    layout.  A testbench session computes it once per design point, so
    each sample's DC and AC solve skips rebuilding it (the engines' [?sys]
    argument); the numeric workspaces come from
    {!Yield_numeric.Linsys.real} / {!Yield_numeric.Linsys.complex}. *)

(** {1 Assembly}

    One walk per analysis, through a {!Yield_numeric.Linsys} workspace:
    each call resets the workspace, stamps every device, and returns the
    right-hand side.  This walk is the only place that decides how a device
    stamps: the DC Newton step, the transient Newton step, the AC sweep,
    the noise analysis and the corner analysis's preconditioner all
    assemble here. *)

val assemble_dc :
  Yield_numeric.Linsys.real ->
  ?models:models -> ?time:float ->
  ?companion:(int -> Yield_numeric.Vec.t -> unit) ->
  Circuit.t -> layout -> x:Yield_numeric.Vec.t -> source_scale:float ->
  gmin:float -> Yield_numeric.Vec.t
(** Newton-linearised DC system around the guess [x]: after the call,
    solving the workspace against the returned right-hand side yields the
    next iterate.  [source_scale] scales all independent sources (for
    source-stepping homotopy); [gmin] is a conductance added from every
    node to ground.

    The transient engine drives the same walk: [time] evaluates every
    independent source's waveform at that instant
    ({!Device.waveform_value}) instead of its DC value, and [companion di
    rhs] runs right after device [di]'s own stamps (index in
    [Circuit.devices]), so companion models accumulate into the workspace
    (through its [add]) and into [rhs] in device order. *)

val mos_operating_points :
  ?models:models ->
  Circuit.t -> x:Yield_numeric.Vec.t -> (string * Mosfet.op) list
(** Device-convention operating point of every MOSFET at the solution [x]
    (PMOS currents and voltages reported NMOS-normalised, as produced by
    {!Mosfet.eval} on the flipped bias). *)

val assemble_ac :
  Yield_numeric.Linsys.complex_sys ->
  Circuit.t -> layout -> ops:(string -> Mosfet.op) -> Complex.t array
(** Small-signal system [(G + jw C) x = rhs] into the workspace's [G] and
    [C]; the returned [rhs] carries the AC magnitudes of the independent
    sources.  [ops] maps MOSFET names to their DC operating points. *)

(** {1 Low-level stamping primitives}

    Each stamps through a generic [add row col value] accumulator: a
    {!Yield_numeric.Linsys} workspace's [add], the transient companion
    hook, or the corner analysis's interval accumulator (which calls them
    with a unit value and reads the sign of each entry). *)

val stamp_conductance :
  (int -> int -> float -> unit) -> Device.node -> Device.node -> float -> unit
(** Two-terminal conductance between two nodes (ground rows skipped). *)

val stamp_transconductance :
  (int -> int -> float -> unit) -> out_p:Device.node -> out_n:Device.node ->
  in_p:Device.node -> in_n:Device.node -> float -> unit
(** Current [g * v(in_p, in_n)] leaving [out_p], entering [out_n]. *)

val stamp_branch :
  (int -> int -> float -> unit) -> layout -> name:string ->
  npos:Device.node -> nneg:Device.node -> unit
(** Voltage-source branch rows/columns (without the RHS value). *)

val inject : Yield_numeric.Vec.t -> Device.node -> float -> unit
(** Add a current injection into a node's KCL right-hand side. *)
