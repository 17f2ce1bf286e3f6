(* Complex matrices are stored as two flat float arrays (re, im): cheaper than
   an array of boxed Complex.t records, and the AC sweep allocates one of
   these per frequency point. *)

type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Cmat.create: negative dimension";
  let n = rows * cols in
  { rows; cols; re = Array.make n 0.; im = Array.make n 0. }

let idx m i j = (i * m.cols) + j

let get m i j =
  let k = idx m i j in
  { Complex.re = m.re.(k); im = m.im.(k) }

let set m i j (z : Complex.t) =
  let k = idx m i j in
  m.re.(k) <- z.re;
  m.im.(k) <- z.im

let of_real ?(imag_scale = 1.) g c =
  if Mat.rows g <> Mat.rows c || Mat.cols g <> Mat.cols c then
    invalid_arg "Cmat.of_real: shape mismatch";
  let m = create (Mat.rows g) (Mat.cols g) in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      let k = idx m i j in
      m.re.(k) <- Mat.get g i j;
      m.im.(k) <- imag_scale *. Mat.get c i j
    done
  done;
  m

let mul_vec m v =
  if m.cols <> Array.length v then invalid_arg "Cmat.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let re = ref 0. and im = ref 0. in
      for j = 0 to m.cols - 1 do
        let k = idx m i j in
        let vr = v.(j).Complex.re and vi = v.(j).Complex.im in
        re := !re +. (m.re.(k) *. vr) -. (m.im.(k) *. vi);
        im := !im +. (m.re.(k) *. vi) +. (m.im.(k) *. vr)
      done;
      { Complex.re = !re; im = !im })

let mag2 m k = (m.re.(k) *. m.re.(k)) +. (m.im.(k) *. m.im.(k))

let solve m0 b =
  let n = m0.rows in
  if m0.cols <> n then invalid_arg "Cmat.solve: matrix not square";
  if Array.length b <> n then invalid_arg "Cmat.solve: dimension mismatch";
  let m = { m0 with re = Array.copy m0.re; im = Array.copy m0.im } in
  let xr = Array.init n (fun i -> b.(i).Complex.re) in
  let xi = Array.init n (fun i -> b.(i).Complex.im) in
  let swap_rows a c =
    if a <> c then begin
      for j = 0 to n - 1 do
        let ka = idx m a j and kc = idx m c j in
        let tr = m.re.(ka) and ti = m.im.(ka) in
        m.re.(ka) <- m.re.(kc);
        m.im.(ka) <- m.im.(kc);
        m.re.(kc) <- tr;
        m.im.(kc) <- ti
      done;
      let tr = xr.(a) and ti = xi.(a) in
      xr.(a) <- xr.(c);
      xi.(a) <- xi.(c);
      xr.(c) <- tr;
      xi.(c) <- ti
    end
  in
  (* Gaussian elimination with partial pivoting, eliminating into the RHS as
     we go (single-RHS forward pass). *)
  for k = 0 to n - 1 do
    let best = ref k and best_mag = ref (mag2 m (idx m k k)) in
    for i = k + 1 to n - 1 do
      let mag = mag2 m (idx m i k) in
      if mag > !best_mag then begin
        best := i;
        best_mag := mag
      end
    done;
    if !best_mag < 1e-280 then raise (Lu.Singular k);
    swap_rows k !best;
    let kp = idx m k k in
    let pr = m.re.(kp) and pi = m.im.(kp) in
    let pmag = (pr *. pr) +. (pi *. pi) in
    for i = k + 1 to n - 1 do
      let ki = idx m i k in
      let ar = m.re.(ki) and ai = m.im.(ki) in
      if ar <> 0. || ai <> 0. then begin
        (* factor = a / pivot *)
        let fr = ((ar *. pr) +. (ai *. pi)) /. pmag in
        let fi = ((ai *. pr) -. (ar *. pi)) /. pmag in
        m.re.(ki) <- 0.;
        m.im.(ki) <- 0.;
        for j = k + 1 to n - 1 do
          let kj = idx m k j and ij = idx m i j in
          let ur = m.re.(kj) and ui = m.im.(kj) in
          m.re.(ij) <- m.re.(ij) -. ((fr *. ur) -. (fi *. ui));
          m.im.(ij) <- m.im.(ij) -. ((fr *. ui) +. (fi *. ur))
        done;
        xr.(i) <- xr.(i) -. ((fr *. xr.(k)) -. (fi *. xi.(k)));
        xi.(i) <- xi.(i) -. ((fr *. xi.(k)) +. (fi *. xr.(k)))
      end
    done
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let sr = ref xr.(i) and si = ref xi.(i) in
    for j = i + 1 to n - 1 do
      let kj = idx m i j in
      sr := !sr -. ((m.re.(kj) *. xr.(j)) -. (m.im.(kj) *. xi.(j)));
      si := !si -. ((m.re.(kj) *. xi.(j)) +. (m.im.(kj) *. xr.(j)))
    done;
    let kp = idx m i i in
    let pr = m.re.(kp) and pi = m.im.(kp) in
    let pmag = (pr *. pr) +. (pi *. pi) in
    xr.(i) <- ((!sr *. pr) +. (!si *. pi)) /. pmag;
    xi.(i) <- ((!si *. pr) -. (!sr *. pi)) /. pmag
  done;
  Array.init n (fun i -> { Complex.re = xr.(i); im = xi.(i) })
