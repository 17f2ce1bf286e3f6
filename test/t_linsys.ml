(* Tests for the solver-agnostic Linsys seam: dense/csr kernel equivalence
   on random sparse systems, circuit-level dense<->csr equivalence (DC, AC,
   transient), symbolic-cache reuse, and byte-identity of the
   Variation.overrides patching path against full circuit rebuilds
   (Variation.apply_overrides, the test oracle). *)

module Vec = Yield_numeric.Vec
module Mat = Yield_numeric.Mat
module Lu = Yield_numeric.Lu
module Cmat = Yield_numeric.Cmat
module Linsys = Yield_numeric.Linsys

(* ---------- random sparse systems ---------- *)

(* A random n x n sparse system guaranteed structurally nonsingular: a
   random permutation provides the transversal (so some rows have a
   structurally zero diagonal, like MNA branch rows), entries on it are
   dominant, and extra off-diagonal entries exercise fill-in. *)
let random_system st n =
  let perm = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let entries = Hashtbl.create 16 in
  for j = 0 to n - 1 do
    Hashtbl.replace entries
      ((perm.(j) * n) + j)
      (4. +. (float_of_int n *. 0.5) +. Random.State.float st 2.)
  done;
  let extras = Random.State.int st (2 * n) in
  for _ = 1 to extras do
    let i = Random.State.int st n and j = Random.State.int st n in
    if not (Hashtbl.mem entries ((i * n) + j)) then
      Hashtbl.replace entries ((i * n) + j) (Random.State.float st 2. -. 1.)
  done;
  entries

let pattern_of_entries n entries =
  let b = Linsys.Pattern.builder n in
  Hashtbl.iter (fun key _ -> Linsys.Pattern.add b (key / n) (key mod n)) entries;
  Linsys.Pattern.build b

let assemble_real sys n entries =
  sys.Linsys.reset ();
  Hashtbl.iter
    (fun key v ->
      (* split the value into two adds to exercise accumulation *)
      sys.Linsys.add (key / n) (key mod n) (0.25 *. v);
      sys.Linsys.add (key / n) (key mod n) (0.75 *. v))
    entries

let prop_real_dense_csr_equiv =
  QCheck.Test.make ~count:200
    ~name:"csr real solve matches dense on random sparse systems"
    QCheck.(pair (int_bound 1000000) (int_range 2 14))
    (fun (seed, n) ->
      let st = Random.State.make [| seed; 17 |] in
      let entries = random_system st n in
      let pat = pattern_of_entries n entries in
      let dense = Linsys.real (Linsys.compile Linsys.Dense pat) in
      let csr = Linsys.real (Linsys.compile Linsys.Csr pat) in
      let b = Array.init n (fun _ -> Random.State.float st 4. -. 2.) in
      assemble_real dense n entries;
      assemble_real csr n entries;
      let xd = dense.Linsys.solve b in
      let xc = csr.Linsys.solve b in
      Vec.max_abs_diff xd xc < 1e-9)

let prop_complex_dense_csr_equiv =
  QCheck.Test.make ~count:150
    ~name:"csr complex factor matches dense on random G + jwC systems"
    QCheck.(pair (int_bound 1000000) (int_range 2 10))
    (fun (seed, n) ->
      let st = Random.State.make [| seed; 23 |] in
      let g_entries = random_system st n in
      let c_entries = Hashtbl.create 16 in
      Hashtbl.iter
        (fun key _ ->
          if Random.State.bool st then
            Hashtbl.replace c_entries key (Random.State.float st 1e-9))
        g_entries;
      let b = Linsys.Pattern.builder n in
      Hashtbl.iter (fun key _ -> Linsys.Pattern.add b (key / n) (key mod n))
        g_entries;
      let pat = Linsys.Pattern.build b in
      let assemble cs =
        cs.Linsys.creset ();
        Hashtbl.iter (fun key v -> cs.Linsys.add_g (key / n) (key mod n) v)
          g_entries;
        Hashtbl.iter (fun key v -> cs.Linsys.add_c (key / n) (key mod n) v)
          c_entries
      in
      let dense = Linsys.complex (Linsys.compile Linsys.Dense pat) in
      let csr = Linsys.complex (Linsys.compile Linsys.Csr pat) in
      assemble dense;
      assemble csr;
      let omega = 2. *. Float.pi *. 1e6 in
      let rhs =
        Array.init n (fun _ ->
            {
              Complex.re = Random.State.float st 2. -. 1.;
              im = Random.State.float st 2. -. 1.;
            })
      in
      let xd = (dense.Linsys.factor ~omega) rhs in
      let xc = (csr.Linsys.factor ~omega) rhs in
      let err = ref 0. in
      for i = 0 to n - 1 do
        err := Float.max !err (Complex.norm (Complex.sub xd.(i) xc.(i)))
      done;
      !err < 1e-9)

let test_csr_structural_singular () =
  (* a column with no structural entries cannot be matched *)
  let b = Linsys.Pattern.builder 2 in
  Linsys.Pattern.add b 0 0;
  Linsys.Pattern.add b 1 0;
  let pat = Linsys.Pattern.build b in
  match Linsys.compile Linsys.Csr pat with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular for structurally singular pattern"

let test_csr_numeric_singular () =
  let b = Linsys.Pattern.builder 2 in
  List.iter (fun (i, j) -> Linsys.Pattern.add b i j) [ (0, 0); (0, 1); (1, 0); (1, 1) ];
  let pat = Linsys.Pattern.build b in
  let sys = Linsys.real (Linsys.compile Linsys.Csr pat) in
  sys.Linsys.reset ();
  List.iter
    (fun (i, j, v) -> sys.Linsys.add i j v)
    [ (0, 0, 1.); (0, 1, 2.); (1, 0, 2.); (1, 1, 4.) ];
  match sys.Linsys.solve [| 1.; 2. |] with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular for rank-deficient values"

let test_backend_names () =
  Alcotest.(check (option string))
    "dense" (Some "dense")
    (Option.map Linsys.backend_name (Linsys.backend_of_string " Dense "));
  Alcotest.(check (option string))
    "csr" (Some "csr")
    (Option.map Linsys.backend_name (Linsys.backend_of_string "csr"));
  Alcotest.(check (option string))
    "sparse alias" (Some "csr")
    (Option.map Linsys.backend_name (Linsys.backend_of_string "sparse"));
  Alcotest.(check (option string))
    "unknown" None
    (Option.map Linsys.backend_name (Linsys.backend_of_string "cholesky"))

let test_dense_of_size_matches_mat () =
  let n = 4 in
  let st = Random.State.make [| 42 |] in
  let m = Mat.create n n in
  let sys = Linsys.real (Linsys.dense_of_size n) in
  sys.Linsys.reset ();
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let v =
        if i = j then 5. +. Random.State.float st 1.
        else Random.State.float st 2. -. 1.
      in
      Mat.set m i j v;
      sys.Linsys.add i j v
    done
  done;
  let b = Array.init n float_of_int in
  let expect = Lu.solve (Lu.factor m) b in
  let got = sys.Linsys.solve b in
  Alcotest.(check bool) "byte-identical to Mat/Lu" true
    (Array.for_all2 (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) expect got)

(* ---------- circuit-level dense <-> csr equivalence ---------- *)

module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Mna = Yield_spice.Mna
module Dcop = Yield_spice.Dcop
module Ac = Yield_spice.Ac
module Tran = Yield_spice.Tran
module Rng = Yield_stats.Rng
module Variation = Yield_process.Variation
module Gtb = Yield_circuits.Testbench

(* fresh functor instantiations so the per-functor session caches start
   empty whatever ran before in the suite *)
module Ota_tb = Gtb.Make (Yield_circuits.Ota)
module Miller_tb = Gtb.Make (Yield_circuits.Miller)

(* documented tolerance of the csr backend against dense (README): the two
   pivot orders differ, and one iterative-refinement step brings csr back
   to well below simulator tolerances on these well-conditioned systems *)
let csr_tol = 1e-6

let test_circuit_dc_ac_dense_csr () =
  let circuit, _ = Miller_tb.build Yield_circuits.Miller.default_params in
  let sys_d = Mna.sys ~backend:Linsys.Dense circuit in
  let sys_c = Mna.sys ~backend:Linsys.Csr circuit in
  let freqs = Gtb.freqs_of Gtb.default_conditions in
  (* scaled-down variation keeps every sample convergent (a full-sigma
     draw can legitimately push the bias point past convergence, which
     would test the retry chain rather than the solver seam) *)
  let spec = Variation.scale_spec 0.3 Variation.default_spec in
  for seed = 1 to 5 do
    (* a different variation sample per round randomises the matrix values
       while keeping the (cached) topology fixed *)
    let models = Variation.overrides spec (Rng.create seed) circuit in
    match
      ( Dcop.solve_with_retry ~sys:sys_d ~models circuit,
        Dcop.solve_with_retry ~sys:sys_c ~models circuit )
    with
    | Ok od, Ok oc ->
        let dv = Vec.max_abs_diff od.Dcop.x oc.Dcop.x in
        if dv > csr_tol then
          Alcotest.failf "seed %d: DC voltages differ by %g" seed dv;
        let bd = Ac.transfer_by_name ~sys:sys_d circuit od ~out:"out" ~freqs in
        let bc = Ac.transfer_by_name ~sys:sys_c circuit oc ~out:"out" ~freqs in
        Array.iteri
          (fun i rd ->
            let rc = bc.Ac.response.(i) in
            (* relative: the response spans many orders of magnitude *)
            let err =
              Complex.norm (Complex.sub rd rc)
              /. Float.max 1e-30 (Complex.norm rd)
            in
            if err > csr_tol then
              Alcotest.failf "seed %d freq %g: AC response differs by %g"
                seed bd.Ac.freqs.(i) err)
          bd.Ac.response
    | (Error _ as e), _ | _, (Error _ as e) ->
        (match e with
        | Error err ->
            Alcotest.failf "seed %d: DC solve failed: %s" seed
              (Dcop.error_to_string err)
        | Ok _ -> assert false)
  done

let test_circuit_tran_dense_csr () =
  (* an RC low-pass driven by a pulse plus a MOS follower: exercises the
     transient companion stamps and the per-step Newton solve through both
     backends *)
  let build () =
    let c = Circuit.create () in
    Circuit.add_vsource c ~name:"VDD" "vdd" "0" 3.3;
    let wave =
      Device.Pulse
        {
          v1 = 0.5;
          v2 = 1.5;
          delay = 1e-7;
          rise = 1e-8;
          fall = 1e-8;
          width = 1e-6;
          period = 0.;
        }
    in
    Circuit.add_vsource c ~name:"VIN" ~wave "in" "0" 0.5;
    Circuit.add_resistor c ~name:"R1" "in" "g" 1e3;
    Circuit.add_capacitor c ~name:"C1" "g" "0" 1e-12;
    Circuit.add_mosfet c ~name:"M1" ~d:"vdd" ~g:"g" ~s:"s" ~b:"0"
      ~model:Yield_process.Tech.c35.Yield_process.Tech.nmos ~w:10e-6 ~l:1e-6;
    Circuit.add_resistor c ~name:"RS" "s" "0" 10e3;
    c
  in
  let circuit = build () in
  let options = Tran.options ~t_stop:5e-7 ~dt:5e-9 () in
  let run backend =
    match Tran.run ~sys:(Mna.sys ~backend circuit) options circuit with
    | Ok r -> r
    | Error e -> Alcotest.failf "tran (%s): %s" (Linsys.backend_name backend) (Tran.error_to_string e)
  in
  let rd = run Linsys.Dense in
  let rc = run Linsys.Csr in
  let vd = Tran.voltage_by_name rd circuit "s" in
  let vc = Tran.voltage_by_name rc circuit "s" in
  Alcotest.(check int) "points" (Array.length vd) (Array.length vc);
  Array.iteri
    (fun i a ->
      if Float.abs (a -. vc.(i)) > csr_tol then
        Alcotest.failf "t=%g: dense %g vs csr %g" rd.Tran.times.(i) a vc.(i))
    vd

let test_session_pattern_cache () =
  let params i =
    let p = Yield_circuits.Ota.default_params in
    { p with Yield_circuits.Ota.w1 = p.Yield_circuits.Ota.w1 *. (1. +. (0.02 *. float_of_int i)) }
  in
  (* first sessions may compile (one pattern per backend)... *)
  let s_dense = Ota_tb.session (params 0) in
  let s_csr = Ota_tb.session ~solver:Linsys.Csr (params 0) in
  let builds0 = Linsys.Pattern.builds () in
  (* ...every further session of the same topology must hit the cache *)
  let sessions =
    List.init 4 (fun i ->
        [
          Ota_tb.session (params (i + 1));
          Ota_tb.session ~solver:Linsys.Csr (params (i + 1));
        ])
  in
  Alcotest.(check int) "no pattern rebuilds across sessions" builds0
    (Linsys.Pattern.builds ());
  Alcotest.(check string) "dense name" "dense"
    (Ota_tb.session_solver_name s_dense);
  Alcotest.(check string) "csr name" "csr" (Ota_tb.session_solver_name s_csr);
  List.iter
    (List.iter (fun s ->
         Alcotest.(check bool) "shared compiled session" true
           (Ota_tb.session_sys s == Ota_tb.session_sys s_dense
           || Ota_tb.session_sys s == Ota_tb.session_sys s_csr)))
    sessions

(* byte-identity of the batch patching path against the rebuild oracle:
   same models in, bit-identical perf out *)
let check_perf_bits name p_rebuild p_session =
  match (p_rebuild, p_session) with
  | None, None -> ()
  | Some (a : Gtb.perf), Some (b : Gtb.perf) ->
      let bits = Int64.bits_of_float in
      let field fname x y =
        Alcotest.(check int64) (name ^ " " ^ fname) (bits x) (bits y)
      in
      field "gain_db" a.Gtb.gain_db b.Gtb.gain_db;
      field "phase_margin_deg" a.Gtb.phase_margin_deg b.Gtb.phase_margin_deg;
      field "unity_gain_hz" a.Gtb.unity_gain_hz b.Gtb.unity_gain_hz;
      field "f3db_hz" a.Gtb.f3db_hz b.Gtb.f3db_hz;
      field "rout_est" a.Gtb.rout_est b.Gtb.rout_est
  | Some _, None | None, Some _ ->
      Alcotest.fail (name ^ ": rebuild and session paths disagree on failure")

(* the rebuild oracle: bake the sample's models into a fresh circuit with
   [apply_overrides], then run the unpatched, session-less DC + AC solve *)
let rebuild_perf fresh models =
  let c = Variation.apply_overrides fresh models in
  let conditions = Gtb.default_conditions in
  match Dcop.solve_with_retry c with
  | Error _ -> None
  | Ok op ->
      Gtb.perf_of_bode conditions
        (Ac.transfer_by_name c op ~out:"out" ~freqs:(Gtb.freqs_of conditions))

let test_ota_overrides_bit_identical () =
  let params = Yield_circuits.Ota.default_params in
  let session = Ota_tb.session params in
  for seed = 11 to 15 do
    let fresh, _ = Ota_tb.build params in
    let rebuild =
      rebuild_perf fresh
        (Variation.overrides Variation.default_spec (Rng.create seed) fresh)
    in
    let patched =
      Ota_tb.evaluate_in_session session ~spec:Variation.default_spec
        ~rng:(Rng.create seed)
    in
    check_perf_bits (Printf.sprintf "ota seed %d" seed) rebuild patched
  done

let test_miller_overrides_bit_identical () =
  let params = Yield_circuits.Miller.default_params in
  let session = Miller_tb.session params in
  for seed = 11 to 15 do
    let fresh, _ = Miller_tb.build params in
    let rebuild =
      rebuild_perf fresh
        (Variation.overrides Variation.default_spec (Rng.create seed) fresh)
    in
    let patched =
      Miller_tb.evaluate_in_session session ~spec:Variation.default_spec
        ~rng:(Rng.create seed)
    in
    check_perf_bits (Printf.sprintf "miller seed %d" seed) rebuild patched
  done

(* evaluate_with_draw (session + overrides_with_draw, mismatch zeroed)
   against the rebuild oracle on the same models *)
let test_with_draw_bit_identical () =
  let spec = Variation.default_spec in
  let no_mismatch =
    { spec with Variation.mismatch = Variation.zero_spec.Variation.mismatch }
  in
  let oracle fresh draw =
    rebuild_perf fresh
      (Variation.overrides_with_draw no_mismatch draw (Rng.create 0) fresh)
  in
  for seed = 21 to 23 do
    let draw = Variation.draw_global spec (Rng.create seed) in
    let ota = Yield_circuits.Ota.default_params in
    check_perf_bits
      (Printf.sprintf "ota draw %d" seed)
      (oracle (fst (Ota_tb.build ota)) draw)
      (Ota_tb.evaluate_with_draw ~spec ~draw ota);
    let miller = Yield_circuits.Miller.default_params in
    check_perf_bits
      (Printf.sprintf "miller draw %d" seed)
      (oracle (fst (Miller_tb.build miller)) draw)
      (Miller_tb.evaluate_with_draw ~spec ~draw miller)
  done

let suites =
  [
    ( "linsys.kernel",
      [
        QCheck_alcotest.to_alcotest prop_real_dense_csr_equiv;
        QCheck_alcotest.to_alcotest prop_complex_dense_csr_equiv;
        Alcotest.test_case "structural singular" `Quick
          test_csr_structural_singular;
        Alcotest.test_case "numeric singular" `Quick test_csr_numeric_singular;
        Alcotest.test_case "backend names" `Quick test_backend_names;
        Alcotest.test_case "dense_of_size = Mat/Lu" `Quick
          test_dense_of_size_matches_mat;
      ] );
    ( "linsys.circuit",
      [
        Alcotest.test_case "dc+ac dense = csr (miller)" `Quick
          test_circuit_dc_ac_dense_csr;
        Alcotest.test_case "transient dense = csr" `Quick
          test_circuit_tran_dense_csr;
        Alcotest.test_case "session pattern cache" `Quick
          test_session_pattern_cache;
        Alcotest.test_case "ota overrides bit-identical" `Quick
          test_ota_overrides_bit_identical;
        Alcotest.test_case "miller overrides bit-identical" `Quick
          test_miller_overrides_bit_identical;
        Alcotest.test_case "with_draw bit-identical (ota, miller)" `Quick
          test_with_draw_bit_identical;
      ] );
  ]
