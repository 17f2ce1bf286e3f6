(** The breakdown of a dense LU factorisation.  The factorisations
    themselves run inside the {!Linsys} workspaces. *)

exception Singular of int
(** Raised when no usable pivot exists in the given column. *)
