(** Open-loop testbench for the OTA (the paper's §4.2 objective-function
    evaluation): DC feedback through a large resistor with an AC-grounding
    capacitor on the inverting input — the standard Spectre loop-breaking
    arrangement — a load capacitor, and an AC sweep from which open-loop gain
    and phase margin are extracted. *)

type conditions = Testbench.conditions = {
  tech : Yield_process.Tech.t;
  vcm : float;  (** input common-mode voltage, V *)
  load_cap : float;  (** F *)
  f_lo : float;
  f_hi : float;
  points_per_decade : int;
  min_unity_gain_hz : float;
      (** design constraint (paper eq. 1, g_j(x) >= 0): the filter
          application needs adequate OTA bandwidth, so designs whose
          unity-gain frequency falls below this are infeasible *)
}

val default_conditions : conditions

type perf = Testbench.perf = {
  gain_db : float;  (** open-loop gain at the lowest frequency *)
  phase_margin_deg : float;
  unity_gain_hz : float;
  f3db_hz : float;
  rout_est : float;
      (** single-pole output-resistance estimate
          [gain_lin / (2 pi f_u C_load)], the [ro] used by the behavioural
          model *)
}

val build :
  ?conditions:conditions -> Ota.params -> Yield_spice.Circuit.t * string
(** The testbench circuit and the output node name. *)

val bode : ?conditions:conditions -> Ota.params -> Yield_spice.Ac.bode option
(** Full open-loop transfer function; [None] if the DC solve fails. *)

val perf_of_bode : conditions -> Yield_spice.Ac.bode -> perf option
(** [None] when the response has no unity crossing. *)

val evaluate : ?conditions:conditions -> Ota.params -> perf option
(** DC + AC + extraction in one call; [None] on any failure.  This is the
    objective function handed to the optimiser. *)

type session
(** The testbench built once for one sizing, with its MNA layout; see
    {!Testbench.Make.session}. *)

val session : ?conditions:conditions ->
  ?solver:Yield_numeric.Linsys.backend -> Ota.params -> session

val session_circuit : session -> Yield_spice.Circuit.t

val bode_in_session :
  session -> Yield_spice.Mna.models -> Yield_spice.Ac.bode option
(** DC + AC sweep with the MOSFET models patched by one Monte Carlo
    sample's override array — the sampled-evaluation primitive. *)

val evaluate_in_session :
  session -> spec:Yield_process.Variation.spec -> rng:Yield_stats.Rng.t ->
  perf option
(** Like {!evaluate} but with one Monte Carlo draw of process variation and
    mismatch applied to every transistor, patched into the session. *)

val evaluate_with_draw :
  ?conditions:conditions ->
  spec:Yield_process.Variation.spec ->
  draw:Yield_process.Variation.global_draw ->
  Ota.params ->
  perf option
(** Deterministic evaluation under a specific global draw with mismatch
    disabled — the hook for sensitivity analysis and corner-style studies. *)

val cmrr_db : ?conditions:conditions -> Ota.params -> float option
(** Common-mode rejection ratio at the low-frequency end: the differential
    testbench's gain over the gain measured when both inputs move together
    (the AC-grounding capacitor's far terminal is driven instead of
    grounded, so the loop-breaking arrangement is identical). *)

val psrr_db : ?conditions:conditions -> Ota.params -> float option
(** Positive-supply rejection at the low-frequency end: differential gain
    over the supply-to-output gain. *)

val input_referred_noise :
  ?conditions:conditions -> ?flicker:Yield_spice.Noise.flicker -> Ota.params ->
  ((float * float) array * float) option
(** Input-referred noise PSD across the sweep and the integrated RMS noise
    from [f_lo] to the unity-gain frequency. *)

type step_perf = Testbench.step_perf = {
  slew_v_per_us : float;
  settling_1pct_s : float option;
  overshoot_pct : float;
  final_error_v : float;  (** |final output - target|, the follower's gain error *)
}

val step_response :
  ?conditions:conditions -> ?amplitude:float -> ?t_stop:float -> ?dt:float ->
  Ota.params -> (float array * float array) option
(** Unity-gain follower step response: the OTA's output follows a
    [amplitude]-volt input step (default 0.5 V around the common mode).
    Returns (times, output voltage); [None] if the transient fails. *)

val step_perf :
  ?conditions:conditions -> ?amplitude:float -> ?t_stop:float -> ?dt:float ->
  Ota.params -> step_perf option
(** Slew rate, 1 % settling time and overshoot extracted from
    {!step_response}. *)

val feasible : conditions -> perf -> bool
(** The eq. 1 constraint set: positive phase margin and unity-gain frequency
    above the floor. *)

val objectives : perf -> float array
(** [[| gain_db; phase_margin_deg |]] — the two paper objectives. *)
