(** DC operating-point analysis: damped Newton–Raphson on the MNA system,
    with gmin-stepping and source-stepping homotopies as fallbacks. *)

type t = {
  x : Yield_numeric.Vec.t;  (** converged unknown vector *)
  layout : Mna.layout;
  mos_ops : (string * Mosfet.op) list;
  iterations : int;  (** Newton iterations of the final (full-source) solve *)
}

type options = {
  max_iterations : int;  (** per Newton attempt; default 150 *)
  vtol : float;  (** voltage convergence tolerance; default 1e-9 *)
  max_step : float;  (** per-iteration voltage step clamp, V; default 0.5 *)
  gmin : float;  (** baseline node-to-ground conductance; default 1e-12 *)
}

type error =
  | No_convergence of { attempts : string list }
  | Singular_system of string

val error_to_string : error -> string

val classify_error : error -> Yield_resilience.Retry.classification
(** [No_convergence] is transient (a different starting point may converge);
    [Singular_system] is permanent (the topology itself is broken). *)

val newton_loop :
  Yield_numeric.Linsys.real -> n_nodes:int -> max_iterations:int ->
  vtol:float -> max_step:float ->
  assemble:(Yield_numeric.Vec.t -> Yield_numeric.Vec.t) ->
  Yield_numeric.Vec.t -> (Yield_numeric.Vec.t * int) option
(** The one damped-Newton iteration of the tree, shared by the DC solve
    and the transient engine.  Starting from a copy of the guess,
    [assemble x] stamps the system linearised around [x] into the
    workspace and returns its right-hand side; the workspace's solve gives
    the next iterate.  Steps of the first [n_nodes] unknowns (node
    voltages) are clamped to [max_step]; branch currents move freely.
    Returns the solution and the iteration count once the largest
    unclamped step is below [vtol]; [None] after [max_iterations]
    iterations, on a singular factorisation, or on a non-finite iterate. *)

val solve :
  ?options:options -> ?x0_jitter:(int -> float) -> ?sys:Mna.sys ->
  ?models:Mna.models -> Circuit.t -> (t, error) result
(** [x0_jitter k] is added to unknown [k] of the initial guess — the retry
    layer uses it to perturb the starting point between attempts.

    Structurally singular circuits ({!Topology.dc_issues}: a node with no DC
    path to ground, a loop of voltage sources) fail immediately with
    [Singular_system], before any factoring — previously gmin either masked
    them with a meaningless 0 V bias or burned the whole homotopy chain into
    a misclassified [No_convergence].

    The solve chain consults three fault-injection points
    ({!Yield_resilience.Fault}): [dcop.solve] fails the whole call with
    [No_convergence], while [dcop.newton] and [dcop.gmin] fail one homotopy
    stage each, forcing the gmin-stepping / source-stepping fallbacks.

    [sys] supplies the precomputed {!Mna.sys} layout of the circuit's
    topology — the batch-first Monte Carlo path computes it once per front
    point; without it the layout is rebuilt, with the same result.
    [models] patches per-device MOSFET models for this sample (see
    {!Mna.models}). *)

val solve_with_retry :
  ?options:options -> ?budget_s:float -> ?sys:Mna.sys -> ?models:Mna.models ->
  Circuit.t -> (t, error) result
(** {!solve} under the [dcop.solve] retry policy (3 attempts): transient
    non-convergence is retried with a deterministic gaussian jitter
    (sigma 50 mV) on the initial guess; singular systems fail immediately.
    Accounting lands in the [retry.dcop.solve.*] metrics.

    [budget_s] is an overall wall-clock budget for the whole call
    (converted to the absolute deadline {!Yield_resilience.Retry} takes):
    a retry that would overrun it is not launched — the failure counts as
    exhausted, plus [retry.dcop.solve.deadline_stopped].  The table-server
    request path uses the same mechanism against its per-request
    deadline. *)

val voltage : t -> Device.node -> float

val voltage_by_name : t -> Circuit.t -> string -> float
(** @raise Not_found for an unknown node name. *)

val branch_current : t -> string -> float
(** Current through the named voltage source.
    @raise Not_found if there is no such source. *)

val mos_op : t -> string -> Mosfet.op
(** @raise Not_found for an unknown MOSFET. *)

val pp : Circuit.t -> Format.formatter -> t -> unit
(** Human-readable operating-point report (node voltages and device bias). *)
