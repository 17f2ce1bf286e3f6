(** Linear-system workspaces for the simulation engines.

    Every engine assembles and solves its MNA system through a small
    record of closures: {!type-real} for DC / transient Newton systems,
    {!type-complex_sys} for AC systems of the form [G + jwC].  The
    workspaces are dense: they wrap {!Mat}/{!Lu}/{!Cmat} with exactly the
    operation sequence the engines used before the records existed, so
    results are byte-identical to the historical direct calls.

    A workspace is mutable: allocate one per worker with {!val-real} /
    {!val-complex}. *)

type real = {
  reset : unit -> unit;  (** zero the assembled values *)
  add : int -> int -> float -> unit;  (** accumulate an entry *)
  solve : float array -> float array;
      (** factor the assembled system and solve; leaves assembled values
          intact. @raise Lu.Singular when the factorisation breaks down *)
}
(** Mutable workspace for one real system (DC / transient Newton step). *)

type complex_sys = {
  creset : unit -> unit;  (** zero both assembled matrices *)
  add_g : int -> int -> float -> unit;  (** accumulate into G *)
  add_c : int -> int -> float -> unit;  (** accumulate into C *)
  factor : omega:float -> Complex.t array -> Complex.t array;
      (** factor [G + j*omega*C] once; the returned solver may be applied
          to many right-hand sides. @raise Lu.Singular on breakdown *)
}
(** Mutable workspace for one complex system of the form [G + jwC]. *)

val real : int -> real
(** [real n]: a fresh workspace for an [n]x[n] real system. *)

val complex : int -> complex_sys
(** [complex n]: a fresh workspace for an [n]x[n] complex system. *)

type backend = Dense
(** Vestige of the retired solver choice: dense is the only backend, so
    an optional [?solver:backend] argument has exactly one value and
    selects nothing.  Kept only so existing callers that pass
    [~solver:Dense] still compile; a later change drops it with them. *)
