(** Generic amplifier characterisation.

    The measurement conditions, performance records and extraction logic are
    topology-independent; {!Make} instantiates the testbenches (open-loop AC,
    common-mode/supply variants, unity-gain follower transient, noise) for
    any {!Amplifier.S}.  {!Ota_testbench} is [Make (Ota)] plus the paper's
    defaults; {!Miller_testbench} is [Make (Miller)].

    Process-varied evaluation has one path: build a {!Make.session} once
    per sizing and patch each Monte Carlo sample's device models into it
    ({!Make.bode_in_session}). *)

type conditions = {
  tech : Yield_process.Tech.t;
  vcm : float;  (** input common-mode voltage, V *)
  load_cap : float;  (** F *)
  f_lo : float;
  f_hi : float;
  points_per_decade : int;
  min_unity_gain_hz : float;
      (** design constraint (paper eq. 1, g_j(x) >= 0): designs whose
          unity-gain frequency falls below this are infeasible *)
}

val default_conditions : conditions
(** The paper's §4 conditions: c35 technology, 1.65 V common mode, 3 pF
    load, 10 Hz - 1 GHz at 10 points/decade, 10 MHz bandwidth floor. *)

type perf = {
  gain_db : float;  (** open-loop gain at the lowest frequency *)
  phase_margin_deg : float;
  unity_gain_hz : float;
  f3db_hz : float;
  rout_est : float;
      (** single-pole output-resistance estimate
          [gain_lin / (2 pi f_u C_load)], the [ro] used by the behavioural
          model *)
}

type step_perf = {
  slew_v_per_us : float;
  settling_1pct_s : float option;
  overshoot_pct : float;
  final_error_v : float;  (** |final output - target|, the follower's gain error *)
}

val perf_of_bode : conditions -> Yield_spice.Ac.bode -> perf option
(** [None] when the response has no unity crossing. *)

val feasible : conditions -> perf -> bool
(** The eq. 1 constraint set: positive phase margin and unity-gain frequency
    above the floor. *)

val objectives : perf -> float array
(** [[| gain_db; phase_margin_deg |]] — the two paper objectives. *)

val freqs_of : conditions -> float array
(** The AC sweep grid the conditions describe. *)

module Make (A : Amplifier.S) : sig
  val build : ?conditions:conditions -> A.params -> Yield_spice.Circuit.t * string
  (** Open-loop testbench (DC feedback through a large resistor, AC ground
      through a large capacitor on the inverting input) and the output node
      name. *)

  val bode : ?conditions:conditions -> A.params -> Yield_spice.Ac.bode option

  val evaluate : ?conditions:conditions -> A.params -> perf option
  (** DC + AC + extraction; [None] on any failure.  The optimiser's
      objective function. *)

  type session
  (** One testbench instantiation pinned to a front point: the built
      circuit plus its {!Yield_spice.Mna.sys} layout, computed once so
      each sample's solves skip it.  Sessions are immutable and safe to
      share across domains. *)

  val session :
    ?conditions:conditions -> ?solver:Yield_numeric.Linsys.backend ->
    A.params -> session
  (** Build the open-loop testbench once for these parameters.  [solver]
      is a vestige of the retired backend choice: its only value,
      [Dense], selects nothing. *)

  val session_circuit : session -> Yield_spice.Circuit.t

  val session_sys : session -> Yield_spice.Mna.sys

  val bode_in_session :
    session -> Yield_spice.Mna.models -> Yield_spice.Ac.bode option
  (** The sampled evaluation: DC + AC sweep of the session's circuit with
      the MOSFET models patched by [models] (one Monte Carlo sample from
      {!Yield_process.Variation.overrides} or a sibling builder); [None]
      when the DC solve fails.  This is the only runtime path that
      evaluates a process-varied testbench.  Its oracle, pinned by the
      tests, is an unpatched solve of
      [Yield_process.Variation.apply_overrides (session_circuit s) models],
      which it matches bit for bit. *)

  val evaluate_in_session :
    session -> spec:Yield_process.Variation.spec ->
    rng:Yield_stats.Rng.t -> perf option
  (** One Monte Carlo sample of process variation and mismatch applied to
      every transistor: draws {!Yield_process.Variation.overrides}, then
      {!bode_in_session} and {!perf_of_bode}. *)

  val evaluate_with_draw :
    ?conditions:conditions -> spec:Yield_process.Variation.spec ->
    draw:Yield_process.Variation.global_draw -> A.params -> perf option
  (** Deterministic evaluation under a specific global draw, mismatch
      disabled (sensitivity analysis hook): a fresh {!session} patched by
      {!Yield_process.Variation.overrides_with_draw}. *)

  val cmrr_db : ?conditions:conditions -> A.params -> float option
  (** Low-frequency common-mode rejection: differential gain over the gain
      when both inputs move together. *)

  val psrr_db : ?conditions:conditions -> A.params -> float option
  (** Low-frequency positive-supply rejection. *)

  val input_referred_noise :
    ?conditions:conditions -> ?flicker:Yield_spice.Noise.flicker -> A.params ->
    ((float * float) array * float) option
  (** Input-referred noise PSD across the sweep and the integrated RMS from
      [f_lo] to the unity-gain frequency. *)

  val step_response :
    ?conditions:conditions -> ?amplitude:float -> ?t_stop:float -> ?dt:float ->
    A.params -> (float array * float array) option
  (** Unity-gain follower step response: (times, output voltage). *)

  val step_perf :
    ?conditions:conditions -> ?amplitude:float -> ?t_stop:float -> ?dt:float ->
    A.params -> step_perf option
end
