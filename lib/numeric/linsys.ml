(* Dense linear-system workspaces: see linsys.mli for the contract.

   These closures must stay byte-identical to the historical direct
   Mat/Lu/Cmat call sequence — reset is Mat.fill 0 (indistinguishable from
   a fresh Mat.create), solve is Lu.solve (Lu.factor m) b, and the complex
   factor is Cmat.of_real ~imag_scale:omega followed by Cmat.solve per
   right-hand side.  Do not "optimise" them without re-pinning. *)

type real = {
  reset : unit -> unit;
  add : int -> int -> float -> unit;
  solve : float array -> float array;
}

type complex_sys = {
  creset : unit -> unit;
  add_g : int -> int -> float -> unit;
  add_c : int -> int -> float -> unit;
  factor : omega:float -> Complex.t array -> Complex.t array;
}

let real n =
  let m = Mat.create n n in
  {
    reset = (fun () -> Mat.fill m 0.);
    add = Mat.add_to m;
    solve = (fun b -> Lu.solve (Lu.factor m) b);
  }

let complex n =
  let g = Mat.create n n in
  let c = Mat.create n n in
  {
    creset =
      (fun () ->
        Mat.fill g 0.;
        Mat.fill c 0.);
    add_g = Mat.add_to g;
    add_c = Mat.add_to c;
    factor =
      (fun ~omega ->
        let m = Cmat.of_real ~imag_scale:omega g c in
        fun rhs -> Cmat.solve m rhs);
  }

type backend = Dense
