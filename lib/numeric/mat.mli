(** Dense row-major float matrices. *)

type t

val create : int -> int -> t
(** [create rows cols] is a zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t

val of_arrays : float array array -> t
(** @raise Invalid_argument on ragged input or zero rows. *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] performs [m.(i,j) <- m.(i,j) + x]. *)

val mul : t -> t -> t
(** Matrix product.  @raise Invalid_argument on inner-dimension mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t

val transpose : t -> t
