(* Dense linear-system workspaces: see linsys.mli for the contract.

   Each workspace owns flat row-major float arrays, allocated once, and its
   closures index them directly.  The library is compiled with -opaque under
   dune's dev profile, so a call into another module is never inlined: an
   element read through Mat.get would be an out-of-line call returning a
   freshly boxed float.  Hence the rule for the loops below — no call into
   another module per element.

   The factor and solve loops also index without bounds checks (through
   [Unchecked], bound locally as [Array] so [a.(i)] reads unchecked there):
   each index is built from loop counters below n, or from the recorded
   pivots and columns, which are, and the entry points check the caller's
   vector lengths first.  The checks were about a third of the complex
   factor's time on the default OTA testbench.  [accumulate], which takes
   the caller's row and column, stays checked.

   The arithmetic, operation order and pivot choices are those of the packed
   Doolittle LU for real systems and of the single-pass complex Gaussian
   elimination for G + jwC, so every solve is bit-for-bit reproducible; the
   pins in test/t_pins.ml ("Linsys seeded solves", "OTA output noise", "MC
   session samples") fail on a one-ulp change. *)

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
  solve_entry : Complex.t array -> int -> Complex.t;
}

(* pivots below these magnitudes (|p| for real, |p|^2 for complex systems)
   count as a breakdown *)
let real_pivot_floor = 1e-300

let complex_pivot_floor = 1e-280

module Unchecked = struct
  include Stdlib.Array

  external get : 'a array -> int -> 'a = "%array_unsafe_get"

  external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
end

(* m(i,j) += v on a row-major n x n array *)
let accumulate n m i j v =
  let k = (i * n) + j in
  m.(k) <- m.(k) +. v

let real n =
  let nn = n * n in
  let a = Array.make nn 0. in
  (* packed factors: unit lower triangle below the diagonal, U on and above
     it; [perm.(i)] is the original row now at row i *)
  let lu = Array.make nn 0. in
  let perm = Array.make n 0 in
  let decompose () =
    let module Array = Unchecked in
    Array.blit a 0 lu 0 nn;
    for i = 0 to n - 1 do
      perm.(i) <- i
    done;
    for k = 0 to n - 1 do
      let rk = k * n in
      let best = ref k and best_mag = ref (Float.abs lu.(rk + k)) in
      for i = k + 1 to n - 1 do
        let mag = Float.abs lu.((i * n) + k) in
        if mag > !best_mag then begin
          best := i;
          best_mag := mag
        end
      done;
      if !best_mag < real_pivot_floor then raise (Lu.Singular k);
      let p = !best in
      if p <> k then begin
        let t = perm.(k) in
        perm.(k) <- perm.(p);
        perm.(p) <- t;
        (* whole rows: the multipliers in the lower part travel with them *)
        let rp = p * n in
        for j = 0 to n - 1 do
          let t = lu.(rk + j) in
          lu.(rk + j) <- lu.(rp + j);
          lu.(rp + j) <- t
        done
      end;
      let pivot = lu.(rk + k) in
      for i = k + 1 to n - 1 do
        let ri = i * n in
        let f = lu.(ri + k) /. pivot in
        lu.(ri + k) <- f;
        if f <> 0. then
          for j = k + 1 to n - 1 do
            lu.(ri + j) <- lu.(ri + j) -. (f *. lu.(rk + j))
          done
      done
    done
  in
  {
    reset = (fun () -> Array.fill a 0 nn 0.);
    add = (fun i j v -> accumulate n a i j v);
    solve =
      (fun b ->
        if Array.length b <> n then invalid_arg "Linsys.solve: dimension mismatch";
        decompose ();
        let module Array = Unchecked in
        let x = Array.make n 0. in
        for i = 0 to n - 1 do
          x.(i) <- b.(perm.(i))
        done;
        (* forward substitution: L y = P b *)
        for i = 1 to n - 1 do
          let ri = i * n in
          let acc = ref x.(i) in
          for j = 0 to i - 1 do
            acc := !acc -. (lu.(ri + j) *. x.(j))
          done;
          x.(i) <- !acc
        done;
        (* back substitution: U x = y *)
        for i = n - 1 downto 0 do
          let ri = i * n in
          let acc = ref x.(i) in
          for j = i + 1 to n - 1 do
            acc := !acc -. (lu.(ri + j) *. x.(j))
          done;
          x.(i) <- !acc /. lu.(ri + i)
        done;
        x);
  }

let complex n =
  let nn = n * n in
  let g = Array.make nn 0. and c = Array.make nn 0. in
  (* G + jwC, reduced in place to U on and above the diagonal *)
  let re = Array.make nn 0. and im = Array.make nn 0. in
  (* the forward elimination, recorded for replay on each right-hand side:
     at step k rows k and [piv.(k)] swap, then ops [op_end.(k-1)] to
     [op_end.(k) - 1] subtract (fr + j fi) * x_k from x at [op_row] *)
  let piv = Array.make n 0 and op_end = Array.make n 0 in
  let op_row = Array.make nn 0 in
  let op_fr = Array.make nn 0. and op_fi = Array.make nn 0. in
  (* the columns right of the diagonal where row k of U is not exactly
     zero, in increasing order: [u_col.(k*n)] to [u_col.(u_end.(k) - 1)];
     [all_col.(j) = j] stands in for the dense column range *)
  let u_col = Array.make nn 0 and u_end = Array.make n 0 in
  let all_col = Array.init n Fun.id in
  let xr = Array.make n 0. and xi = Array.make n 0. in
  let decompose omega =
    let module Array = Unchecked in
    (* Skipping a column whose pivot-row entry is exactly zero leaves every
       bit as the dense update would: with a finite multiplier the update
       subtracts a signed zero, and t - (+-0) = t unless t is itself -0.
       Assembly accumulates from +0 (+0 + -0 = +0), so G and C hold no -0,
       and the elimination only makes a -0 out of a -0.  The one other
       source is the product omega * c, which is +0 or non-zero when omega
       is positive and c = 0 or the product does not underflow; otherwise
       the whole factorisation takes the dense updates *)
    let sparse = ref (omega > 0.) in
    for k = 0 to nn - 1 do
      re.(k) <- g.(k);
      let v = omega *. c.(k) in
      im.(k) <- v;
      if v = 0. && c.(k) <> 0. then sparse := false
    done;
    let ops = ref 0 in
    for k = 0 to n - 1 do
      let rk = k * n in
      let best = ref k
      and best_mag = ref ((re.(rk + k) *. re.(rk + k)) +. (im.(rk + k) *. im.(rk + k))) in
      for i = k + 1 to n - 1 do
        let ik = (i * n) + k in
        let mag = (re.(ik) *. re.(ik)) +. (im.(ik) *. im.(ik)) in
        if mag > !best_mag then begin
          best := i;
          best_mag := mag
        end
      done;
      if !best_mag < complex_pivot_floor then raise (Lu.Singular k);
      let p = !best in
      piv.(k) <- p;
      if p <> k then begin
        (* columns left of k are never read again: only the rest moves *)
        let rp = p * n in
        for j = k to n - 1 do
          let tr = re.(rk + j) and ti = im.(rk + j) in
          re.(rk + j) <- re.(rp + j);
          im.(rk + j) <- im.(rp + j);
          re.(rp + j) <- tr;
          im.(rp + j) <- ti
        done
      end;
      (* row k is final from here on: record where it is not zero *)
      let nz = ref rk in
      for j = k + 1 to n - 1 do
        if re.(rk + j) <> 0. || im.(rk + j) <> 0. then begin
          u_col.(!nz) <- j;
          incr nz
        end
      done;
      u_end.(k) <- !nz;
      let pr = re.(rk + k) and pi = im.(rk + k) in
      let pmag = (pr *. pr) +. (pi *. pi) in
      for i = k + 1 to n - 1 do
        let ri = i * n in
        let ar = re.(ri + k) and ai = im.(ri + k) in
        (* exactly-zero entries are skipped, on the matrix and the RHS *)
        if ar <> 0. || ai <> 0. then begin
          let fr = ((ar *. pr) +. (ai *. pi)) /. pmag in
          let fi = ((ai *. pr) -. (ar *. pi)) /. pmag in
          (* a non-finite multiplier times a zero is NaN: such a row takes
             the dense update so the NaN lands where it always did *)
          let skip = !sparse && Float.is_finite fr && Float.is_finite fi in
          let cols = if skip then u_col else all_col in
          let lo = if skip then rk else k + 1 in
          let hi = if skip then u_end.(k) else n in
          for q = lo to hi - 1 do
            let j = cols.(q) in
            let ur = re.(rk + j) and ui = im.(rk + j) in
            re.(ri + j) <- re.(ri + j) -. ((fr *. ur) -. (fi *. ui));
            im.(ri + j) <- im.(ri + j) -. ((fr *. ui) +. (fi *. ur))
          done;
          op_row.(!ops) <- i;
          op_fr.(!ops) <- fr;
          op_fi.(!ops) <- fi;
          incr ops
        end
      done;
      op_end.(k) <- !ops
    done
  in
  (* the solution of the last factorisation for [b], from row n-1 down to
     row [last], into [xr]/[xi] *)
  let substitute (b : Complex.t array) last =
    if Array.length b <> n then invalid_arg "Linsys.factor: dimension mismatch";
    let module Array = Unchecked in
    (* back substitution skips U's zero columns under the same argument as
       the elimination: it holds while no partial sum is -0 (none is
       unless [b] holds one) and every x_j already solved is finite *)
    let sparse = ref true in
    for i = 0 to n - 1 do
      let br = b.(i).Complex.re and bi = b.(i).Complex.im in
      xr.(i) <- br;
      xi.(i) <- bi;
      if (br = 0. && 1. /. br < 0.) || (bi = 0. && 1. /. bi < 0.) then
        sparse := false
    done;
    let o = ref 0 in
    for k = 0 to n - 1 do
      let p = piv.(k) in
      if p <> k then begin
        let tr = xr.(k) and ti = xi.(k) in
        xr.(k) <- xr.(p);
        xi.(k) <- xi.(p);
        xr.(p) <- tr;
        xi.(p) <- ti
      end;
      let xrk = xr.(k) and xik = xi.(k) in
      while !o < op_end.(k) do
        let i = op_row.(!o) and fr = op_fr.(!o) and fi = op_fi.(!o) in
        xr.(i) <- xr.(i) -. ((fr *. xrk) -. (fi *. xik));
        xi.(i) <- xi.(i) -. ((fr *. xik) +. (fi *. xrk));
        incr o
      done
    done;
    for i = n - 1 downto last do
      let ri = i * n in
      let sr = ref xr.(i) and si = ref xi.(i) in
      let cols = if !sparse then u_col else all_col in
      let lo = if !sparse then ri else i + 1 in
      let hi = if !sparse then u_end.(i) else n in
      for q = lo to hi - 1 do
        let j = cols.(q) in
        let ur = re.(ri + j) and ui = im.(ri + j) in
        sr := !sr -. ((ur *. xr.(j)) -. (ui *. xi.(j)));
        si := !si -. ((ur *. xi.(j)) +. (ui *. xr.(j)))
      done;
      let pr = re.(ri + i) and pi = im.(ri + i) in
      let pmag = (pr *. pr) +. (pi *. pi) in
      let vr = ((!sr *. pr) +. (!si *. pi)) /. pmag in
      let vi = ((!si *. pr) -. (!sr *. pi)) /. pmag in
      xr.(i) <- vr;
      xi.(i) <- vi;
      if not (Float.is_finite vr && Float.is_finite vi) then sparse := false
    done
  in
  let solve b =
    substitute b 0;
    Array.init n (fun i -> { Complex.re = xr.(i); im = xi.(i) })
  in
  {
    creset =
      (fun () ->
        Array.fill g 0 nn 0.;
        Array.fill c 0 nn 0.);
    add_g = (fun i j v -> accumulate n g i j v);
    add_c = (fun i j v -> accumulate n c i j v);
    factor =
      (fun ~omega ->
        decompose omega;
        solve);
    solve_entry =
      (fun b i ->
        if i < 0 || i >= n then invalid_arg "Linsys.solve_entry: index";
        substitute b i;
        { Complex.re = xr.(i); im = xi.(i) });
  }

type backend = Dense
