(** The generic characterisation testbenches instantiated for the two-stage
    Miller OTA; see {!Testbench} for the interface and {!Ota_testbench} for
    the paper's primary circuit. *)

val build :
  ?conditions:Testbench.conditions -> Miller.params ->
  Yield_spice.Circuit.t * string

val bode :
  ?conditions:Testbench.conditions -> Miller.params ->
  Yield_spice.Ac.bode option

val evaluate :
  ?conditions:Testbench.conditions -> Miller.params -> Testbench.perf option

type session

val session : ?conditions:Testbench.conditions ->
  ?solver:Yield_numeric.Linsys.backend -> Miller.params -> session

val session_circuit : session -> Yield_spice.Circuit.t

val bode_in_session :
  session -> Yield_spice.Mna.models -> Yield_spice.Ac.bode option

val evaluate_in_session :
  session -> spec:Yield_process.Variation.spec -> rng:Yield_stats.Rng.t ->
  Testbench.perf option

val evaluate_with_draw :
  ?conditions:Testbench.conditions -> spec:Yield_process.Variation.spec ->
  draw:Yield_process.Variation.global_draw -> Miller.params ->
  Testbench.perf option

val cmrr_db : ?conditions:Testbench.conditions -> Miller.params -> float option

val psrr_db : ?conditions:Testbench.conditions -> Miller.params -> float option

val input_referred_noise :
  ?conditions:Testbench.conditions -> ?flicker:Yield_spice.Noise.flicker ->
  Miller.params -> ((float * float) array * float) option

val step_response :
  ?conditions:Testbench.conditions -> ?amplitude:float -> ?t_stop:float ->
  ?dt:float -> Miller.params -> (float array * float array) option

val step_perf :
  ?conditions:Testbench.conditions -> ?amplitude:float -> ?t_stop:float ->
  ?dt:float -> Miller.params -> Testbench.step_perf option
