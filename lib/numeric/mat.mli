(** Dense row-major float matrices. *)

type t

val create : int -> int -> t
(** [create rows cols] is a zero matrix. *)

val identity : int -> t

val init : int -> int -> (int -> int -> float) -> t

val of_arrays : float array array -> t
(** @raise Invalid_argument on ragged input or zero rows. *)

val copy : t -> t

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] performs [m.(i,j) <- m.(i,j) + x]; the fundamental
    operation for MNA stamping. *)

val fill : t -> float -> unit

val mul : t -> t -> t
(** Matrix product.  @raise Invalid_argument on inner-dimension mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t

val transpose : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val pp : Format.formatter -> t -> unit
