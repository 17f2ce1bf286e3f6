(** Linear-system workspaces for the simulation engines.

    Every engine assembles and solves its MNA system through a small
    record of closures: {!type-real} for DC / transient Newton systems,
    {!type-complex_sys} for AC systems of the form [G + jwC].  A workspace
    owns flat float arrays for its assembled matrices, its LU work copy,
    pivots and solve vectors, allocated once by {!val-real} /
    {!val-complex}; factorisation and solves run in place over them, so
    the only per-solve allocation is the returned solution.

    A workspace is mutable: allocate one per worker. *)

type real = {
  reset : unit -> unit;  (** zero the assembled values *)
  add : int -> int -> float -> unit;  (** accumulate an entry *)
  solve : float array -> float array;
      (** factor the assembled system and solve into a fresh array; leaves
          assembled values intact. @raise Lu.Singular when the
          factorisation breaks down *)
}
(** Mutable workspace for one real system (DC / transient Newton step). *)

type complex_sys = {
  creset : unit -> unit;  (** zero both assembled matrices *)
  add_g : int -> int -> float -> unit;  (** accumulate into G *)
  add_c : int -> int -> float -> unit;  (** accumulate into C *)
  factor : omega:float -> Complex.t array -> Complex.t array;
      (** [factor ~omega] factors [G + j*omega*C] once and returns a solver
          that may be applied to many right-hand sides, each into a fresh
          array.  The solver reads the workspace's factors, so it is valid
          until the next [factor] on the same workspace.
          @raise Lu.Singular on breakdown *)
  solve_entry : Complex.t array -> int -> Complex.t;
      (** [solve_entry b i] is [(solve b).(i)] for the solver the last
          [factor] returned, bit for bit, without building the solution
          vector: back substitution stops at row [i].  The AC sweep reads
          its one output node this way. *)
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
