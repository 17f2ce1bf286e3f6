exception Singular of int

(* Doolittle LU with partial pivoting, stored packed in one matrix: the unit
   lower triangle in the strict lower part, U in the upper part.  [perm] maps
   factored row index -> original row index of b. *)
type t = { lu : Mat.t; perm : int array; swaps : int }

let pivot_floor = 1e-300

let factor m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Lu.factor: matrix not square";
  let lu = Mat.copy m in
  let perm = Array.init n (fun i -> i) in
  let swaps = ref 0 in
  for k = 0 to n - 1 do
    (* choose the pivot row *)
    let best = ref k and best_mag = ref (Float.abs (Mat.get lu k k)) in
    for i = k + 1 to n - 1 do
      let mag = Float.abs (Mat.get lu i k) in
      if mag > !best_mag then begin
        best := i;
        best_mag := mag
      end
    done;
    if !best_mag < pivot_floor then raise (Singular k);
    if !best <> k then begin
      incr swaps;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!best);
      perm.(!best) <- tmp;
      for j = 0 to n - 1 do
        let a = Mat.get lu k j and b = Mat.get lu !best j in
        Mat.set lu k j b;
        Mat.set lu !best j a
      done
    end;
    let pivot = Mat.get lu k k in
    for i = k + 1 to n - 1 do
      let factor = Mat.get lu i k /. pivot in
      Mat.set lu i k factor;
      if factor <> 0. then
        for j = k + 1 to n - 1 do
          Mat.set lu i j (Mat.get lu i j -. (factor *. Mat.get lu k j))
        done
    done
  done;
  { lu; perm; swaps = !swaps }

let solve_in_place f b =
  let n = Mat.rows f.lu in
  if Array.length b <> n then invalid_arg "Lu.solve: dimension mismatch";
  (* apply the permutation *)
  let x = Array.init n (fun i -> b.(f.perm.(i))) in
  (* forward substitution: L y = P b *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Mat.get f.lu i j *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* back substitution: U x = y *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Mat.get f.lu i j *. x.(j))
    done;
    x.(i) <- !acc /. Mat.get f.lu i i
  done;
  Array.blit x 0 b 0 n

let solve f b =
  let x = Array.copy b in
  solve_in_place f x;
  x

let solve_system m b = solve (factor m) b

let det f =
  let n = Mat.rows f.lu in
  let d = ref (if f.swaps land 1 = 1 then -1. else 1.) in
  for i = 0 to n - 1 do
    d := !d *. Mat.get f.lu i i
  done;
  !d
