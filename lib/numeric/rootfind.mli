(** Scalar root finding, used to pin down unity-gain and -3 dB crossover
    frequencies from sampled transfer functions. *)

val bisect :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
(** [bisect f a b] finds a root of [f] in [a, b].
    @raise Invalid_argument if [f a] and [f b] have the same sign. *)

val brent :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
(** Brent's method: inverse quadratic interpolation / secant with a bisection
    safety net.  Same bracketing contract as {!bisect}. *)
