(** Structural (pre-numeric) analysis of a circuit's DC connectivity.

    The MNA system is singular — independent of device values — when a node
    has no DC-conductive path to ground (nothing pins its voltage: gates,
    capacitor plates and current-source terminals conduct no DC current) or
    when voltage sources form a loop (their branch equations are linearly
    dependent or contradictory).  {!Dcop.solve} consults {!dc_issues} before
    factoring anything, turning what used to be a 150-iteration
    non-convergence into an immediate, correctly-classified
    [Singular_system]; the preflight linter reports the same issues with
    stable diagnostic codes. *)

type issue =
  | No_dc_path of { node : string }
      (** the node is not connected to ground through any DC-conductive
          device (resistor, voltage source, MOSFET channel) *)
  | No_ac_path of { node : string }
      (** the node is not connected to ground through any AC-conductive
          device — capacitors conduct here, so this is strictly rarer than
          {!No_dc_path} *)
  | Vsource_loop of { through : string }
      (** adding this voltage source's branch closes a loop of voltage
          sources *)

val issue_to_string : issue -> string

val find : int array -> int -> int
(** Union-find over node indices ([parent.(i) = i] at the roots, path
    halving): the representative of [i]'s set. *)

val union : int array -> int -> int -> unit
(** Merge the sets of two indices. *)

val dc_issues : Circuit.t -> issue list
(** All structural singularities, in deterministic order: voltage-source
    loops in device order, then unreachable nodes in node order.  Only nodes
    referenced by at least one device terminal are considered ([.nodeset]
    hints may intern extra names). *)

val ac_issues : Circuit.t -> issue list
(** The same analysis with the AC edge set (capacitors conduct; the MOS
    gate and bulk couple capacitively into the channel): nodes the
    small-signal matrix [G + jwC] cannot constrain at any frequency, plus
    voltage-source loops.  {!Ac.transfer} consults this
    before assembling anything, mirroring the {!Dcop.solve} pre-check. *)

val dangling_nodes : Circuit.t -> (string * string) list
(** Nodes referenced by exactly one device terminal, as
    [(node, device)] pairs in node order — not singular (the device may
    still bias it), but almost always a netlist typo. *)
