(** Complex dense matrices and LU solves, for small-signal AC analysis where
    the MNA system is [G + jwC].  The engines reach it only through
    {!Linsys.complex} workspaces. *)

type t

val create : int -> int -> t
(** Zero matrix. *)

val get : t -> int -> int -> Complex.t

val set : t -> int -> int -> Complex.t -> unit

val of_real : ?imag_scale:float -> Mat.t -> Mat.t -> t
(** [of_real g c ~imag_scale:w] builds [g + j*w*c].  Shapes must agree. *)

val mul_vec : t -> Complex.t array -> Complex.t array

val solve : t -> Complex.t array -> Complex.t array
(** In-place-free LU solve with partial pivoting (by magnitude).
    @raise Invalid_argument on shape mismatch.
    @raise Lu.Singular when a pivot vanishes. *)
