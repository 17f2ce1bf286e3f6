(** Transient analysis: fixed-step trapezoidal integration with a
    backward-Euler start-up step, Newton iteration at every time point.

    The engine owns no stamps and no Newton loop of its own: each time
    point runs {!Dcop.newton_loop} over {!Mna.assemble_dc} with the sources
    evaluated at that time and a companion hook that stamps the device's
    capacitive slots, and the accepted point's MOS capacitances come from
    {!Mna.mos_operating_points}.

    Capacitors (explicit and MOS intrinsic/junction) are handled through
    companion models.  MOS capacitances are evaluated quasi-statically at
    the previous accepted time point: adequate for the slew-rate and
    settling measurements this library needs, and documented as an
    approximation relative to a charge-conserving formulation. *)

type options = {
  t_stop : float;  (** end time, s *)
  dt : float;  (** fixed step, s *)
  max_newton : int;
      (** per-step Newton iteration budget beyond the first (default 60:
          at most 61 iterations) *)
  vtol : float;  (** Newton voltage tolerance (default 1e-7) *)
}

val options : ?max_newton:int -> ?vtol:float -> t_stop:float -> dt:float -> unit -> options
(** @raise Invalid_argument for non-positive times. *)

type t = {
  times : float array;
  solutions : float array array;  (** one unknown vector per time point *)
  layout : Mna.layout;
}

type error = Dc_failed of Dcop.error | Step_failed of { time : float }

val error_to_string : error -> string

val run :
  ?sys:Mna.sys -> ?models:Mna.models -> options -> Circuit.t ->
  (t, error) Stdlib.result
(** Solves the DC operating point (waveform values at t = 0), then
    integrates to [t_stop].  [sys] is the precomputed {!Mna.sys} layout of
    the circuit's topology; [models] applies per-sample MOSFET
    model overrides (see {!Mna.models}). *)

val voltage : t -> Device.node -> float array
(** Waveform of one node voltage across all time points. *)

val voltage_by_name : t -> Circuit.t -> string -> float array
