(** LU factorisation with partial pivoting, for the real MNA systems solved by
    the DC operating-point analysis. *)

exception Singular of int
(** Raised when no usable pivot exists in the given column. *)

type t
(** A factorisation of a square matrix. *)

val factor : Mat.t -> t
(** [factor m] computes [P m = L U].  [m] is not modified.
    @raise Invalid_argument if [m] is not square.
    @raise Singular if a pivot column is numerically zero. *)

val solve : t -> Vec.t -> Vec.t
(** [solve f b] returns [x] with [m x = b]. *)

val solve_system : Mat.t -> Vec.t -> Vec.t
(** One-shot [factor] + [solve]. *)

val det : t -> float
(** Determinant of the factored matrix (sign includes the permutation). *)
