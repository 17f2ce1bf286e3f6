(** Small-signal AC analysis around a converged DC operating point. *)

type bode = {
  freqs : float array;  (** Hz, strictly increasing *)
  response : Complex.t array;  (** complex transfer values, same length *)
}

exception Singular of string
(** Raised by {!transfer} when {!Topology.ac_issues} finds a
    structural singularity — a node [G + jwC] cannot constrain at any
    frequency, or a loop of voltage sources — before anything is
    assembled.  Mirrors the {!Dcop.solve} pre-check, and like it reads
    the issues the layout found ({!Mna.ac_issues}). *)

val transfer :
  ?sys:Mna.sys -> ?stop:(int -> Complex.t -> bool) -> Circuit.t -> Dcop.t ->
  out:Device.node -> freqs:float array -> bode
(** Response observed at node [out] for each frequency, driven by the AC
    magnitudes declared on the circuit's independent sources.  [sys] is the
    circuit's precomputed {!Mna.sys} layout; without it the layout of the
    operating point is used.  Either way the result is the same.

    [stop i z] is asked after the point at index [i] is solved, with its
    response [z]; [true] ends the sweep there, and the bode holds that
    prefix of [freqs].  Each point is the same value either way.  The
    default never stops. *)

val transfer_by_name :
  ?sys:Mna.sys -> ?stop:(int -> Complex.t -> bool) -> Circuit.t -> Dcop.t ->
  out:string -> freqs:float array -> bode

val default_freqs : ?per_decade:int -> f_lo:float -> f_hi:float -> unit -> float array
(** Logarithmically spaced grid, default 10 points per decade. *)
