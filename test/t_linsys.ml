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

(* ---------- complex factor: zero-skipping vs dense elimination ---------- *)

(* The dense elimination the workspace replaced, kept as the oracle: the
   same pivots, multipliers and operation order with every column updated.
   [g] and [c] are the assembled (accumulated from +0) matrices *)
let dense_complex_solve n g c ~omega (b : Complex.t array) =
  let re = Array.map (fun v -> v) g and im = Array.map (fun v -> omega *. v) c in
  let xr = Array.map (fun z -> z.Complex.re) b
  and xi = Array.map (fun z -> z.Complex.im) b in
  match
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
      if !best_mag < 1e-280 then raise (Lu.Singular k);
      let p = !best in
      if p <> k then begin
        let rp = p * n in
        for j = k to n - 1 do
          let tr = re.(rk + j) and ti = im.(rk + j) in
          re.(rk + j) <- re.(rp + j);
          im.(rk + j) <- im.(rp + j);
          re.(rp + j) <- tr;
          im.(rp + j) <- ti
        done;
        let tr = xr.(k) and ti = xi.(k) in
        xr.(k) <- xr.(p);
        xi.(k) <- xi.(p);
        xr.(p) <- tr;
        xi.(p) <- ti
      end;
      let pr = re.(rk + k) and pi = im.(rk + k) in
      let pmag = (pr *. pr) +. (pi *. pi) in
      for i = k + 1 to n - 1 do
        let ri = i * n in
        let ar = re.(ri + k) and ai = im.(ri + k) in
        if ar <> 0. || ai <> 0. then begin
          let fr = ((ar *. pr) +. (ai *. pi)) /. pmag in
          let fi = ((ai *. pr) -. (ar *. pi)) /. pmag in
          for j = k + 1 to n - 1 do
            let ur = re.(rk + j) and ui = im.(rk + j) in
            re.(ri + j) <- re.(ri + j) -. ((fr *. ur) -. (fi *. ui));
            im.(ri + j) <- im.(ri + j) -. ((fr *. ui) +. (fi *. ur))
          done;
          xr.(i) <- xr.(i) -. ((fr *. xr.(k)) -. (fi *. xi.(k)));
          xi.(i) <- xi.(i) -. ((fr *. xi.(k)) +. (fi *. xr.(k)))
        end
      done
    done
  with
  | exception Lu.Singular k -> Error k
  | () ->
      for i = n - 1 downto 0 do
        let ri = i * n in
        let sr = ref xr.(i) and si = ref xi.(i) in
        for j = i + 1 to n - 1 do
          let ur = re.(ri + j) and ui = im.(ri + j) in
          sr := !sr -. ((ur *. xr.(j)) -. (ui *. xi.(j)));
          si := !si -. ((ur *. xi.(j)) +. (ui *. xr.(j)))
        done;
        let pr = re.(ri + i) and pi = im.(ri + i) in
        let pmag = (pr *. pr) +. (pi *. pi) in
        xr.(i) <- ((!sr *. pr) +. (!si *. pi)) /. pmag;
        xi.(i) <- ((!si *. pr) -. (!sr *. pi)) /. pmag
      done;
      Ok (Array.init n (fun i -> (xr.(i), xi.(i))))

(* random sparse systems — exact zeros, negative C, omega = 0 (so omega * c
   makes -0), a NaN or infinity now and then, right-hand sides with
   signed zeros — solved by the workspace ([factor] and every
   [solve_entry]) and by the dense oracle: every bit must agree, the sign
   of every zero and every NaN included *)
let test_complex_zero_skip () =
  let st = Random.State.make [| 1789 |] in
  let pick arr = arr.(Random.State.int st (Array.length arr)) in
  let entry () =
    match Random.State.int st 20 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 -> 0.
    | 8 -> pick [| nan; infinity; neg_infinity; 1e-310; -1e-310 |]
    | _ -> Random.State.float st 2. -. 1.
  in
  let bits (re, im) = (Int64.bits_of_float re, Int64.bits_of_float im) in
  for case = 1 to 3000 do
    let n = 1 + Random.State.int st 8 in
    let nn = n * n in
    (* half the systems may hold a NaN or an infinity *)
    let finite_only = Random.State.bool st in
    let value () =
      let v = entry () in
      if finite_only && not (Float.is_finite v) then 0. else v
    in
    let gv = Array.init nn (fun _ -> value ()) in
    let cv = Array.init nn (fun _ -> value ()) in
    let cs = Linsys.complex n in
    cs.Linsys.creset ();
    Array.iteri (fun k v -> cs.Linsys.add_g (k / n) (k mod n) v) gv;
    Array.iteri (fun k v -> cs.Linsys.add_c (k / n) (k mod n) v) cv;
    let g = Array.map (fun v -> 0. +. v) gv and c = Array.map (fun v -> 0. +. v) cv in
    let omega = pick [| 0.; 1e-300; 1.; 6.28e3; 2e9 |] in
    let b =
      Array.init n (fun _ ->
          {
            Complex.re = pick [| 0.; -0.; 1.; -2.5; entry () |];
            im = pick [| 0.; -0.; 0.5; entry () |];
          })
    in
    let expected = dense_complex_solve n g c ~omega b in
    match cs.Linsys.factor ~omega with
    | exception Lu.Singular k ->
        if expected <> Error k then
          Alcotest.failf "case %d: Singular %d only in the workspace" case k
    | solve -> (
        match expected with
        | Error k -> Alcotest.failf "case %d: Singular %d only in the oracle" case k
        | Ok x ->
            let got = solve b in
            Array.iteri
              (fun i xi ->
                let z = got.(i) and e = cs.Linsys.solve_entry b i in
                if bits (z.Complex.re, z.Complex.im) <> bits xi
                   || bits (e.Complex.re, e.Complex.im) <> bits xi
                then
                  Alcotest.failf
                    "case %d (n=%d, omega=%g): x%d = %h%+hj, oracle %h%+hj"
                    case n omega i z.Complex.re z.Complex.im (fst xi) (snd xi))
              x)
  done

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

(* Bounds at the measured levels plus about 25%.  What an AC sweep still
   allocates is the per-sweep workspace and, per point, the boxed omega and
   the one response value read back (23.4 words per point on this
   testbench, amortised); a DC solve allocates each Newton iteration's
   right-hand side and solution and the boxed values its stamps hand to the
   workspace, plus the final operating points (4,876 words); one Monte
   Carlo sample (DC + bracket-limited sweep + extraction) 6,142 words.
   A per-point matrix copy (1,268 words per point before the kernels worked
   in place), a solution vector per point (81 words), or a tuple or record
   per device evaluation (17,850 words per DC solve) fails these *)
let ac_words_per_point_max = 30.

let dcop_words_max = 6_100.

let sample_words_max = 7_700.

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
  let session = Ota_tb.session Yield_circuits.Ota.default_params in
  let models =
    Variation.overrides Variation.default_spec (Rng.create 5)
      (Ota_tb.session_circuit session)
  in
  let sample () = Ota_tb.perf_in_session session models in
  ignore (sample ());
  let _, sample_words = minor_words sample in
  if per_point > ac_words_per_point_max then
    Alcotest.failf "Ac.transfer: %.1f minor words per point (bound %.0f)"
      per_point ac_words_per_point_max;
  if dc_words > dcop_words_max then
    Alcotest.failf "Dcop.solve: %.0f minor words (bound %.0f)" dc_words
      dcop_words_max;
  if sample_words > sample_words_max then
    Alcotest.failf "perf_in_session: %.0f minor words (bound %.0f)"
      sample_words sample_words_max

let suites =
  [
    ( "linsys.kernel",
      [
        Alcotest.test_case "structural singular" `Quick
          test_structural_singular;
        Alcotest.test_case "numeric singular" `Quick test_numeric_singular;
        Alcotest.test_case "complex zero-skip = dense elimination" `Quick
          test_complex_zero_skip;
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
