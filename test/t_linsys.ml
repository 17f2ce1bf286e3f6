(* Tests for the Linsys workspaces: singular systems, byte-identity of the
   Variation.overrides patching path against full circuit rebuilds
   (Variation.apply_overrides, the test oracle), and an allocation
   tripwire on the AC sweep and the DC solve.  The workspaces' bit-exact
   arithmetic is pinned in t_pins.ml. *)

module Lu = Yield_numeric.Lu
module Linsys = Yield_numeric.Linsys

let test_structural_singular () =
  (* column 1 holds no entry at all: nothing can pivot it *)
  let sys = Linsys.real 2 in
  sys.Linsys.reset ();
  sys.Linsys.add 0 0 1.;
  sys.Linsys.add 1 0 1.;
  match sys.Linsys.solve [| 1.; 2. |] with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular for an empty column"

let test_numeric_singular () =
  let sys = Linsys.real 2 in
  sys.Linsys.reset ();
  List.iter
    (fun (i, j, v) -> sys.Linsys.add i j v)
    [ (0, 0, 1.); (0, 1, 2.); (1, 0, 2.); (1, 1, 4.) ];
  match sys.Linsys.solve [| 1.; 2. |] with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular for rank-deficient values"

(* ---------- sampled evaluation vs the rebuild oracle ---------- *)

module Dcop = Yield_spice.Dcop
module Ac = Yield_spice.Ac
module Rng = Yield_stats.Rng
module Variation = Yield_process.Variation
module Gtb = Yield_circuits.Testbench

module Ota_tb = Gtb.Make (Yield_circuits.Ota)
module Miller_tb = Gtb.Make (Yield_circuits.Miller)

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

(* ---------- allocation tripwire ---------- *)

module Circuit = Yield_spice.Circuit

(* the dense kernels work in place on the workspace's own arrays: what an
   AC sweep still allocates is each point's solution vector and its
   Complex.t records (about 81 words per point on this testbench), and a
   DC solve its per-iteration solutions and device evaluations (about
   17,850 words).  A per-point matrix copy or boxed per-element reads in
   the factorisation (1,268 words per point and 37,890 words per DC solve
   when the kernels went through Mat/Cmat) fail these bounds *)
let ac_words_per_point_max = 128.

let dcop_words_max = 22_300.

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  (r, w1 -. w0)

let test_allocation_tripwire () =
  let c, out = Ota_tb.build Yield_circuits.Ota.default_params in
  let solve () =
    match Dcop.solve c with
    | Ok op -> op
    | Error e -> Alcotest.fail (Dcop.error_to_string e)
  in
  (* warm-up: the first call resolves one-off lazy state *)
  let op = solve () in
  let _, dc_words = minor_words solve in
  let freqs = Gtb.freqs_of Gtb.default_conditions in
  let sweep () = Ac.transfer c op ~out:(Circuit.node c out) ~freqs in
  ignore (sweep ());
  let _, ac_words = minor_words sweep in
  let per_point = ac_words /. float_of_int (Array.length freqs) in
  if per_point > ac_words_per_point_max then
    Alcotest.failf "Ac.transfer: %.1f minor words per point (bound %.0f)"
      per_point ac_words_per_point_max;
  if dc_words > dcop_words_max then
    Alcotest.failf "Dcop.solve: %.0f minor words (bound %.0f)" dc_words
      dcop_words_max

let suites =
  [
    ( "linsys.kernel",
      [
        Alcotest.test_case "structural singular" `Quick
          test_structural_singular;
        Alcotest.test_case "numeric singular" `Quick test_numeric_singular;
      ] );
    ( "linsys.circuit",
      [
        Alcotest.test_case "ota overrides bit-identical" `Quick
          test_ota_overrides_bit_identical;
        Alcotest.test_case "miller overrides bit-identical" `Quick
          test_miller_overrides_bit_identical;
        Alcotest.test_case "with_draw bit-identical (ota, miller)" `Quick
          test_with_draw_bit_identical;
        Alcotest.test_case "allocation tripwire (AC sweep, DC solve)" `Quick
          test_allocation_tripwire;
      ] );
  ]
