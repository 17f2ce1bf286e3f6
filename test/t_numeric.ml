(* Tests for the yield_numeric library: vectors, matrices, the real and
   complex LU kernels of the Linsys workspaces, root finding. *)

module Vec = Yield_numeric.Vec
module Mat = Yield_numeric.Mat
module Lu = Yield_numeric.Lu
module Linsys = Yield_numeric.Linsys
module Rootfind = Yield_numeric.Rootfind

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs b)

let check_float ?(eps = 1e-9) what expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" what expected actual

let test_vec_basics () =
  let v = Vec.init 4 float_of_int in
  check_float "dot" 14. (Vec.dot v v);
  check_float "norm2" (sqrt 14.) (Vec.norm2 v);
  check_float "norm_inf" 3. (Vec.norm_inf v);
  let w = Vec.scale 2. v in
  check_float "scale" 6. w.(3);
  Vec.axpy ~alpha:(-2.) ~x:v ~y:w;
  check_float "axpy zeroes" 0. (Vec.norm_inf w)

let test_vec_linspace () =
  let v = Vec.linspace 0. 1. 5 in
  Alcotest.(check int) "length" 5 (Vec.dim v);
  check_float "first" 0. v.(0);
  check_float "mid" 0.5 v.(2);
  check_float "last" 1. v.(4);
  let lg = Vec.logspace 1. 1000. 4 in
  check_float "log second" 10. lg.(1);
  Alcotest.check_raises "linspace n=1" (Invalid_argument
    "Vec.linspace: need at least two points") (fun () ->
      ignore (Vec.linspace 0. 1. 1))

let test_mat_mul () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Mat.mul a b in
  check_float "c00" 19. (Mat.get c 0 0);
  check_float "c01" 22. (Mat.get c 0 1);
  check_float "c10" 43. (Mat.get c 1 0);
  check_float "c11" 50. (Mat.get c 1 1);
  let v = Mat.mul_vec a [| 1.; 1. |] in
  check_float "mul_vec" 3. v.(0)

let test_mat_transpose () =
  let a = Mat.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Mat.transpose a in
  Alcotest.(check int) "rows" 3 (Mat.rows t);
  Alcotest.(check int) "cols" 2 (Mat.cols t);
  check_float "t21" 6. (Mat.get t 2 1)

(* the dense real kernel, through a workspace filled from row arrays *)
let real_solve a b =
  let n = Array.length a in
  let sys = Linsys.real n in
  sys.Linsys.reset ();
  Array.iteri (fun i row -> Array.iteri (fun j v -> sys.Linsys.add i j v) row) a;
  sys.Linsys.solve b

let test_lu_solves_identity () =
  let a = Array.init 5 (fun i -> Array.init 5 (fun j -> if i = j then 1. else 0.)) in
  let b = Vec.init 5 (fun i -> float_of_int (i + 1)) in
  let x = real_solve a b in
  check_float "identity solve" 0. (Vec.max_abs_diff x b)

let test_lu_known_system () =
  (* 2x + y = 5; x + 3y = 10 -> x = 1, y = 3 *)
  let x = real_solve [| [| 2.; 1. |]; [| 1.; 3. |] |] [| 5.; 10. |] in
  check_float "x" 1. x.(0);
  check_float "y" 3. x.(1)

let test_lu_pivoting () =
  (* zero top-left pivot forces a row exchange *)
  let x = real_solve [| [| 0.; 1. |]; [| 1.; 0. |] |] [| 2.; 3. |] in
  check_float "x" 3. x.(0);
  check_float "y" 2. x.(1)

let test_lu_singular () =
  match real_solve [| [| 1.; 2. |]; [| 2.; 4. |] |] [| 1.; 1. |] with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let prop_lu_random_solve =
  QCheck.Test.make ~count:200 ~name:"lu solves random diagonally dominant systems"
    QCheck.(pair (int_bound 1000000) (int_range 1 12))
    (fun (seed, n) ->
      let st = Random.State.make [| seed |] in
      let a =
        Mat.init n n (fun i j ->
            let v = Random.State.float st 2. -. 1. in
            if i = j then v +. float_of_int n *. 2. else v)
      in
      let x_true = Array.init n (fun _ -> Random.State.float st 4. -. 2.) in
      let b = Mat.mul_vec a x_true in
      let x = real_solve (Array.init n (fun i -> Array.init n (Mat.get a i))) b in
      Vec.max_abs_diff x x_true < 1e-8)

(* the dense complex kernel: a workspace holding G and C, factored at one
   omega *)
let complex_sys g c =
  let n = Array.length g in
  let cs = Linsys.complex n in
  cs.Linsys.creset ();
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      cs.Linsys.add_g i j g.(i).(j);
      cs.Linsys.add_c i j c.(i).(j)
    done
  done;
  cs

let test_complex_solve () =
  (* (1 + j) x = 2 -> x = 1 - j *)
  let cs = complex_sys [| [| 1. |] |] [| [| 1. |] |] in
  let x = cs.Linsys.factor ~omega:1. [| { Complex.re = 2.; im = 0. } |] in
  check_float "re" 1. x.(0).Complex.re;
  check_float "im" (-1.) x.(0).Complex.im

let prop_complex_random_solve =
  QCheck.Test.make ~count:100 ~name:"complex lu solves random systems"
    QCheck.(pair (int_bound 1000000) (int_range 1 8))
    (fun (seed, n) ->
      let st = Random.State.make [| seed |] in
      let rand () = Random.State.float st 2. -. 1. in
      let g =
        Array.init n (fun i ->
            Array.init n (fun j ->
                let re = rand () in
                if i = j then re +. (3. *. float_of_int n) else re))
      in
      let c = Array.init n (fun _ -> Array.init n (fun _ -> rand ())) in
      let a i j = { Complex.re = g.(i).(j); im = c.(i).(j) } in
      let solve = (complex_sys g c).Linsys.factor ~omega:1. in
      (* two right-hand sides through one factorisation *)
      List.for_all
        (fun _ ->
          let x_true = Array.init n (fun _ -> { Complex.re = rand (); im = rand () }) in
          let b =
            Array.init n (fun i ->
                let acc = ref Complex.zero in
                for j = 0 to n - 1 do
                  acc := Complex.add !acc (Complex.mul (a i j) x_true.(j))
                done;
                !acc)
          in
          let x = solve b in
          let err = ref 0. in
          for i = 0 to n - 1 do
            err := Float.max !err (Complex.norm (Complex.sub x.(i) x_true.(i)))
          done;
          !err < 1e-8)
        [ 1; 2 ])

let test_complex_g_plus_jwc () =
  (* G + jwC = 1 + 6j at omega = 3, so (1 + 6j) x = 1 + 6j gives x = 1 *)
  let cs = complex_sys [| [| 1. |] |] [| [| 2. |] |] in
  let x = cs.Linsys.factor ~omega:3. [| { Complex.re = 1.; im = 6. } |] in
  check_float "re" 1. x.(0).Complex.re;
  check_float "im" 0. x.(0).Complex.im

let test_bisect () =
  let root = Rootfind.bisect (fun x -> (x *. x) -. 2.) 0. 2. in
  check_float ~eps:1e-9 "sqrt2" (sqrt 2.) root

let test_brent () =
  let root = Rootfind.brent (fun x -> cos x -. x) 0. 1.5 in
  check_float ~eps:1e-9 "dottie" 0.7390851332151607 root

let test_brent_bad_bracket () =
  match Rootfind.brent (fun x -> x +. 10.) 0. 1. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let prop_brent_polynomial =
  QCheck.Test.make ~count:200 ~name:"brent finds roots of shifted cubics"
    QCheck.(float_range (-5.) 5.)
    (fun r ->
      let f x = ((x -. r) ** 3.) +. (x -. r) in
      let root = Rootfind.brent f (r -. 7.) (r +. 7.) in
      Float.abs (root -. r) < 1e-6)

let suites =
  [
    ( "numeric.vec",
      [
        Alcotest.test_case "basics" `Quick test_vec_basics;
        Alcotest.test_case "linspace/logspace" `Quick test_vec_linspace;
      ] );
    ( "numeric.mat",
      [
        Alcotest.test_case "mul" `Quick test_mat_mul;
        Alcotest.test_case "transpose" `Quick test_mat_transpose;
      ] );
    ( "numeric.lu",
      [
        Alcotest.test_case "identity" `Quick test_lu_solves_identity;
        Alcotest.test_case "known 2x2" `Quick test_lu_known_system;
        Alcotest.test_case "pivoting" `Quick test_lu_pivoting;
        Alcotest.test_case "singular" `Quick test_lu_singular;
        QCheck_alcotest.to_alcotest prop_lu_random_solve;
      ] );
    (* complex-matrix solves: the suite kept its name when the kernel moved
       into Linsys.complex *)
    ( "numeric.cmat",
      [
        Alcotest.test_case "1x1 complex" `Quick test_complex_solve;
        Alcotest.test_case "G + jwC" `Quick test_complex_g_plus_jwc;
        QCheck_alcotest.to_alcotest prop_complex_random_solve;
      ] );
    ( "numeric.rootfind",
      [
        Alcotest.test_case "bisect" `Quick test_bisect;
        Alcotest.test_case "brent" `Quick test_brent;
        Alcotest.test_case "bad bracket" `Quick test_brent_bad_bracket;
        QCheck_alcotest.to_alcotest prop_brent_polynomial;
      ] );
  ]
