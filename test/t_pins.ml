(* Bit-exact pins: transient solutions, corner-analysis enclosure
   endpoints, Monte Carlo session results, output noise and seeded dense
   solves compared as hex floats ([%h]), so a one-ulp drift in the MNA
   stamp order, the Newton loop, the dense LU kernels or the interval
   assembly fails here even where the [%g] golden files cannot see it.
   Any change to an expected string is an output change and must be
   declared as one; on a mismatch the message prints the whole actual
   array in the same layout. *)

module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Tran = Yield_spice.Tran
module Netlist = Yield_spice.Netlist
module Ac = Yield_spice.Ac
module Tech = Yield_process.Tech
module Ota = Yield_circuits.Ota
module Ota_tb = Yield_circuits.Ota_testbench
module Miller_tb = Yield_circuits.Miller_testbench
module Variation = Yield_process.Variation
module Rng = Yield_stats.Rng
module CL = Yield_analyse.Corner_lint
module I = Yield_analyse.Interval
module Dcop = Yield_spice.Dcop
module Noise = Yield_spice.Noise
module Gtb = Yield_circuits.Testbench
module Linsys = Yield_numeric.Linsys
module Lu = Yield_numeric.Lu

let hex = Printf.sprintf "%h"

let check_hex what (expected : string array) (actual : string array) =
  if expected <> actual then
    Alcotest.failf "%s: %%h pin mismatch; actual:\n[|\n%s\n|]" what
      (String.concat "\n"
         (Array.to_list (Array.map (Printf.sprintf "  %S;") actual)))

let digest_of strings = Digest.to_hex (Digest.string (String.concat "," strings))

(* ---------- Tran: small mixed circuit ---------- *)

(* a pulse-driven NMOS stage with a Miller capacitor, a load capacitor and a
   sine current injected into the drain: every source kind, the MOS
   companion slots and explicit capacitors in one solve *)
let mixed_circuit () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"VDD" "vdd" "0" 3.3;
  Circuit.add_vsource c ~name:"VIN"
    ~wave:
      (Device.Pulse
         { v1 = 0.8; v2 = 1.4; delay = 4e-9; rise = 2e-9; fall = 2e-9; width = 10e-9; period = 0. })
    "in" "0" 0.8;
  Circuit.add_resistor c ~name:"RG" "in" "g" 2e3;
  Circuit.add_resistor c ~name:"RD" "vdd" "d" 10e3;
  Circuit.add_mosfet c ~name:"M1" ~d:"d" ~g:"g" ~s:"0" ~b:"0"
    ~model:Tech.c35.Tech.nmos ~w:10e-6 ~l:1e-6;
  Circuit.add_capacitor c ~name:"CM" "g" "d" 0.2e-12;
  Circuit.add_capacitor c ~name:"CL" "d" "0" 1e-12;
  Circuit.add_isource c ~name:"IS"
    ~wave:(Device.Sine { offset = 0.; amplitude = 20e-6; freq = 50e6; phase_deg = 30. })
    "0" "d" 0.;
  c

let mixed_expected =
  [|
    "0x0p+0"; "0x1.a666666666666p+1"; "0x1.999999999999ap-1"; "0x1.9999998bdb29bp-1"; "0x1.5f2e502779f8cp+1"; "-0x1.d2bdcfd0c07a8p-15"; "-0x1.c25c26p-40";
    "0x1.9c511dc3a41dfp-30"; "0x1.a666666666666p+1"; "0x1.999999999999ap-1"; "0x1.9a54c1f4ae30fp-1"; "0x1.6012c106bce4cp+1"; "-0x1.cce4b3926af98p-15"; "0x1.7f4c650a8e2p-21";
    "0x1.9c511dc3a41dfp-29"; "0x1.a666666666666p+1"; "0x1.999999999999ap-1"; "0x1.9acb960465681p-1"; "0x1.611ad7019740ep+1"; "-0x1.c621fd05a8ec8p-15"; "0x1.39545717ee4p-20";
    "0x1.353cd652bb167p-28"; "0x1.a666666666666p+1"; "0x1.e666666666665p-1"; "0x1.c80a90e5a6b9fp-1"; "0x1.6093ecff806a3p+1"; "-0x1.c996294ff8f78p-15"; "-0x1.f165bb75e057p-16";
    "0x1.9c511dc3a41dfp-28"; "0x1.a666666666666p+1"; "0x1.6666666666666p+0"; "0x1.321f9d3418059p+0"; "0x1.4edb439933badp+1"; "-0x1.1edcd05568d08p-14"; "-0x1.ac3fc8a68f73p-14";
    "0x1.01b2b29a4692bp-27"; "0x1.a666666666666p+1"; "0x1.6666666666666p+0"; "0x1.52ddcfdbf96e2p+0"; "0x1.1ede2fc330565p+1"; "-0x1.bc1c8e429c7b6p-14"; "-0x1.4009a33a994p-15";
    "0x1.353cd652bb167p-27"; "0x1.a666666666666p+1"; "0x1.6666666666666p+0"; "0x1.47e91070faa07p+0"; "0x1.d3d51472660bcp+0"; "-0x1.34cfd96bd5ec8p-13"; "-0x1.f38a9fd62b7ep-15";
    "0x1.68c6fa0b2f9a3p-27"; "0x1.a666666666666p+1"; "0x1.6666666666666p+0"; "0x1.4ff8a34a0332ep+0"; "0x1.7a861234b528dp+0"; "-0x1.7df939dfe8ac2p-13"; "-0x1.6f7908baff5p-15";
    "0x1.9c511dc3a41dfp-27"; "0x1.a666666666666p+1"; "0x1.6666666666666p+0"; "0x1.4f5ba447190f3p+0"; "0x1.2510b8b39290dp+0"; "-0x1.c3fb26a088156p-13"; "-0x1.79854242d076p-15";
    "0x1.cfdb417c18a1bp-27"; "0x1.a666666666666p+1"; "0x1.6666666666666p+0"; "0x1.529c0f70ec868p+0"; "0x1.b1fcf727ff30ep-1"; "-0x1.0126394086cb6p-12"; "-0x1.443ee99170c3p-15";
    "0x1.01b2b29a4692bp-26"; "0x1.a666666666666p+1"; "0x1.6666666666666p+0"; "0x1.546ab7a916a27p+0"; "0x1.299aa4ace2a42p-1"; "-0x1.1d14ad4470c9ep-12"; "-0x1.26a2bd037b424p-15";
    "0x1.1b77c47680d49p-26"; "0x1.a666666666666p+1"; "0x1.4p+0"; "0x1.43013c1411db3p+0"; "0x1.9e6230f805cb1p-2"; "-0x1.2f98e28df01f3p-12"; "0x1.89d91b4e601cp-18";
    "0x1.353cd652bb167p-26"; "0x1.a666666666666p+1"; "0x1.999999999999ap-1"; "0x1.f2421fbb72953p-1"; "0x1.9500b765e1d03p-2"; "-0x1.308ecbc71771p-12"; "0x1.6b24f614e79c3p-14";
    "0x1.4f01e82ef5585p-26"; "0x1.a666666666666p+1"; "0x1.999999999999ap-1"; "0x1.a6b692fec310cp-1"; "0x1.2b019e22cfa49p-1"; "-0x1.1ccb28aadb146p-12"; "0x1.adb152de987bp-17";
    "0x1.68c6fa0b2f9a3p-26"; "0x1.a666666666666p+1"; "0x1.999999999999ap-1"; "0x1.bf4b1eb350785p-1"; "0x1.a613cc22f8a87p-1"; "-0x1.0396b17942e8fp-12"; "0x1.34c8dd912a74cp-15";
    "0x1.828c0be769dc1p-26"; "0x1.a666666666666p+1"; "0x1.999999999999ap-1"; "0x1.b2dcb6260188dp-1"; "0x1.0685ef51e08d8p+0"; "-0x1.dd004d085206ep-13"; "0x1.9de526d38d438p-16";
    "0x1.9c511dc3a41dfp-26"; "0x1.a666666666666p+1"; "0x1.999999999999ap-1"; "0x1.b3e95a4d8c03ep-1"; "0x1.373103649fceep+0"; "-0x1.b521d2e965e36p-13"; "0x1.af1691ce141dp-16";
    "0x1.b6162f9fde5fdp-26"; "0x1.a666666666666p+1"; "0x1.999999999999ap-1"; "0x1.af73635fca9eap-1"; "0x1.617f32117e55cp+0"; "-0x1.9279bd0f30357p-13"; "0x1.66009f42b9adp-16";
    "0x1.cfdb417c18a1bp-26"; "0x1.a666666666666p+1"; "0x1.999999999999ap-1"; "0x1.acc06fcde8e2bp-1"; "0x1.8625e64b3dfe1p+0"; "-0x1.74736d6981971p-13"; "0x1.39c812da2a908p-16";
    "0x1.e9a0535852e39p-26"; "0x1.a666666666666p+1"; "0x1.999999999999ap-1"; "0x1.a9597e04732a5p-1"; "0x1.a4b51a31bad8ep+0"; "-0x1.5b6aa8e2c2042p-13"; "0x1.020a84ef4dep-16";
    "0x1.01b2b29a4692bp-25"; "0x1.a666666666666p+1"; "0x1.999999999999ap-1"; "0x1.a68437d9b1341p-1"; "0x1.bdc8f7733c97ap+0"; "-0x1.46df81c39f68bp-13"; "0x1.a73f41d62a4ep-17";
  |]

let test_tran_mixed () =
  let c = mixed_circuit () in
  match Tran.run (Tran.options ~t_stop:30e-9 ~dt:1.5e-9 ()) c with
  | Error e -> Alcotest.fail (Tran.error_to_string e)
  | Ok r ->
      let actual =
        Array.concat
          (Array.to_list
             (Array.mapi
                (fun i x -> Array.append [| hex r.Tran.times.(i) |] (Array.map hex x))
                r.Tran.solutions))
      in
      check_hex "mixed-circuit solutions" mixed_expected actual

(* ---------- Tran: OTA unity-gain follower step ---------- *)

(* the waveform is 1001 points long: pin its digest, its length and a few
   samples across the edge *)
let follower_expected =
  [|
    "1001";
    "875b959598ab7c428a5baa548002f96c";
    "0x1.655387d703fep+0";
    "0x1.655387d703feep+0";
    "0x1.e38ea2f38674dp+0";
    "0x1.e4ae018479fbep+0";
    "0x1.e4ae01861dcaep+0";
    "0x1.e4ae01861dcabp+0";
  |]

let test_tran_ota_follower () =
  match Ota_tb.step_response Ota.default_params with
  | None -> Alcotest.fail "follower step failed"
  | Some (times, v) ->
      let pairs =
        Array.to_list (Array.mapi (fun i t -> hex t ^ " " ^ hex v.(i)) times)
      in
      let picks = List.map (fun i -> hex v.(i)) [ 0; 100; 150; 250; 500; Array.length v - 1 ] in
      let actual =
        Array.of_list
          ((string_of_int (Array.length v) :: digest_of pairs :: picks))
      in
      check_hex "OTA follower step" follower_expected actual

(* ---------- Corner_lint enclosure endpoints ---------- *)

let fixture name =
  let rec find dir =
    let candidate = Filename.concat dir (Filename.concat "examples/netlists" name) in
    if Sys.file_exists candidate then candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then Alcotest.failf "fixture %s not found" name
      else find parent
  in
  find (Sys.getcwd ())

(* [ac] stands in for a deck without an .ac card *)
let corner_endpoints ?k_sigma ?ac ~window name =
  let text =
    let ic = open_in (fixture name) in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let circuit, analyses = Netlist.parse_with_analyses text in
  let per_decade, f_lo, f_hi, out =
    match
      if ac <> None then ac
      else
      List.find_map
        (function
          | Netlist.Ac_analysis { per_decade; f_lo; f_hi; out } ->
              Some (per_decade, f_lo, f_hi, out)
          | _ -> None)
        analyses
    with
    | Some card -> card
    | None -> Alcotest.failf "%s has no .ac card" name
  in
  let freqs = Ac.default_freqs ~per_decade ~f_lo ~f_hi () in
  let r = CL.analyse_circuit ?k_sigma ~window ~freqs ~out circuit in
  let ends = function
    | None -> [ "none" ]
    | Some (i : I.t) -> [ hex i.I.lo; hex i.I.hi ]
  in
  let e = r.CL.enclosure in
  Array.of_list
    (ends e.CL.gain_db @ ends e.CL.unity_gain_hz @ ends e.CL.pm_deg
    @ List.concat_map (fun (sn, sp) -> ends (Some sn) @ ends (Some sp)) r.CL.slices)

let corner_amp_expected =
  [|
    "0x1.bc806bc90938dp+3"; "0x1.f00b59efca81ep+3";
    "0x1.e03def4b7b907p+26"; "0x1.7c90eaefe6816p+27";
    "0x1.159795642021ap+8"; "0x1.1efff483f9f8fp+8";
    "-0x1.eb851eb851eb9p-7"; "0x1.eb851eb851eb9p-7";
    "-0x1.5810624dd2f1cp-6"; "0x1.5810624dd2f1cp-6";
  |]

let corner_fail_expected =
  [|
    "-0x1.8152f0b4a6d17p+2"; "-0x1.815017da02c38p+2";
    "none"; "none";
    "-0x1.eb851eb851eb9p-7"; "0x1.eb851eb851eb9p-7";
    "-0x1.5810624dd2f1cp-6"; "0x1.5810624dd2f1cp-6";
  |]

(* the OTA testbench inside the verified k <= 0.5 envelope: MOSFETs with
   non-ground sources and bulks, so the interval DC and AC stamps overlap
   in shared matrix entries and their order shows in the endpoints *)
let corner_ota_expected =
  [|
    "0x1.4ca97144a4cccp+4"; "0x1.9e44130e4f514p+5";
    "0x1.32a07373bb4afp+21"; "0x1.3073ef265200cp+24";
    "0x1.7d4f1f5aa484cp+4"; "0x1.7919aa4dcae88p+6";
    "-0x1.47ae147ae147cp-9"; "0x0p+0";
    "-0x1.cac083126e97ap-9"; "0x0p+0";
    "-0x1.47ae147ae147cp-9"; "0x0p+0";
    "0x0p+0"; "0x1.cac083126e97ap-9";
    "0x0p+0"; "0x1.47ae147ae147cp-9";
    "-0x1.cac083126e97ap-9"; "0x0p+0";
    "0x0p+0"; "0x1.47ae147ae147cp-9";
    "0x0p+0"; "0x1.cac083126e97ap-9";
  |]

let test_corner_amp () =
  check_hex "corner_amp enclosure" corner_amp_expected
    (corner_endpoints ~window:{ CL.min_gain_db = 14.; min_pm_deg = 45. } "corner_amp.cir")

let test_corner_fail () =
  check_hex "corner_fail enclosure" corner_fail_expected
    (corner_endpoints ~window:{ CL.min_gain_db = 0.; min_pm_deg = 0. } "corner_fail.cir")

let test_corner_ota () =
  check_hex "ota_testbench enclosure" corner_ota_expected
    (corner_endpoints ~k_sigma:0.5 ~ac:(10, 10., 1e9, "out")
       ~window:{ CL.min_gain_db = 0.; min_pm_deg = 0. } "ota_testbench.cir")

(* ---------- Monte Carlo hot path: sampled evaluation in a session ---------- *)

(* gain, PM and unity-gain frequency of seeds 11-13 at default params,
   through the DC + AC solves every Monte Carlo sample runs: a change in
   the dense factor/solve arithmetic order moves these even when both
   sides of a path-vs-path bit-identity test move together *)
let session_perf_hex evaluate =
  Array.concat
    (List.map
       (fun seed ->
         match evaluate ~spec:Variation.default_spec ~rng:(Rng.create seed) with
         | None -> [| "none" |]
         | Some (p : Yield_circuits.Testbench.perf) ->
             [|
               hex p.Yield_circuits.Testbench.gain_db;
               hex p.Yield_circuits.Testbench.phase_margin_deg;
               hex p.Yield_circuits.Testbench.unity_gain_hz;
             |])
       [ 11; 12; 13 ])

let ota_session_expected =
  [|
    "0x1.6ecfed9923dbdp+5"; "0x1.44d4941b80fcp+6"; "0x1.410f29e811bdfp+23";
    "0x1.6f0796dc2f5e6p+5"; "0x1.447279ac710fdp+6"; "0x1.3ea6b8361b4e9p+23";
    "0x1.706091176de5ap+5"; "0x1.4621b82f021cap+6"; "0x1.39f379b71f504p+23";
  |]

let miller_session_expected =
  [|
    "0x1.5d7a93dab1b8ap+6"; "0x1.60f128ebc9c28p+5"; "0x1.ae13bea82e334p+22";
    "0x1.5cb2432209358p+6"; "0x1.63298f2874b7p+5"; "0x1.be241eaee1f4bp+22";
    "0x1.5dff5386b4ef2p+6"; "0x1.5c6c48be7ddd8p+5"; "0x1.bb3aecc449bdbp+22";
  |]

let test_session_samples () =
  let ota = Ota_tb.session Ota.default_params in
  check_hex "OTA session samples" ota_session_expected
    (session_perf_hex (Ota_tb.evaluate_in_session ota));
  let miller = Miller_tb.session Yield_circuits.Miller.default_params in
  check_hex "Miller session samples" miller_session_expected
    (session_perf_hex (Miller_tb.evaluate_in_session miller))

(* ---------- Noise: several right-hand sides per factorisation ---------- *)

(* output noise of the default OTA testbench over the 81-point sweep: one
   complex factorisation per frequency, one solve per noise source, so the
   replay of a stored factorisation onto further right-hand sides shows here *)
let noise_expected =
  [|
    "81";
    "5567ec489b6b334c56137320bce0774c";
    "0x1.1ef4c2d7a3c02p-23";
    "0x1.bec2ef939635dp-38";
    "0x1.9270e6598bb6ap-67";
  |]

let test_noise_ota () =
  let c, out = Ota_tb.build Ota.default_params in
  match Dcop.solve c with
  | Error e -> Alcotest.fail (Dcop.error_to_string e)
  | Ok op ->
      let pts =
        Noise.output_noise c op ~out:(Circuit.node c out)
          ~freqs:(Gtb.freqs_of Gtb.default_conditions)
      in
      let lines =
        Array.to_list
          (Array.map
             (fun (p : Noise.point) ->
               String.concat " "
                 (hex p.Noise.total_v2_per_hz
                 :: List.map
                      (fun (co : Noise.contribution) ->
                        co.Noise.device ^ "=" ^ hex co.Noise.psd_v2_per_hz)
                      p.Noise.contributions))
             pts)
      in
      let total i = hex pts.(i).Noise.total_v2_per_hz in
      check_hex "OTA output noise" noise_expected
        [|
          string_of_int (Array.length pts);
          digest_of lines;
          total 0;
          total 40;
          total (Array.length pts - 1);
        |]

(* ---------- Linsys: seeded dense solves ---------- *)

(* random 7x7 systems with about a third of the entries exactly zero and no
   diagonal dominance, so partial pivoting swaps rows and the elimination
   meets exactly-zero sub-diagonal entries; each real system is solved for
   three right-hand sides and each complex factorisation (G + jwC at three
   frequencies) is applied to three right-hand sides.  The last system of
   each kind has an empty column, so the pivot at which the factorisation
   gives up is pinned too *)
let linsys_n = 7

let sparse_entry st =
  if Random.State.int st 3 = 0 then 0. else Random.State.float st 2. -. 1.

let linsys_batch () =
  let n = linsys_n in
  let st = Random.State.make [| 2024 |] in
  let out = ref [] in
  let emit s = out := s :: !out in
  let rhs () = Array.init n (fun _ -> Random.State.float st 2. -. 1.) in
  let entry ~last j = if last && j = 4 then 0. else sparse_entry st in
  for s = 1 to 12 do
    let sys = Linsys.real n in
    sys.Linsys.reset ();
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        sys.Linsys.add i j (entry ~last:(s = 12) j)
      done
    done;
    for _ = 1 to 3 do
      match sys.Linsys.solve (rhs ()) with
      | exception Lu.Singular k -> emit (Printf.sprintf "singular %d" k)
      | x -> Array.iter (fun v -> emit (hex v)) x
    done
  done;
  for s = 1 to 6 do
    let cs = Linsys.complex n in
    cs.Linsys.creset ();
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        cs.Linsys.add_g i j (entry ~last:(s = 6) j);
        cs.Linsys.add_c i j (1e-9 *. entry ~last:(s = 6) j)
      done
    done;
    List.iter
      (fun omega ->
        (* a breakdown is pinned once per right-hand side, whether the
           workspace reports it from [factor] or from the solve *)
        let solve =
          match cs.Linsys.factor ~omega with
          | solve -> solve
          | exception (Lu.Singular _ as e) -> fun _ -> raise e
        in
        for _ = 1 to 3 do
          let b =
            Array.init n (fun _ ->
                { Complex.re = Random.State.float st 2. -. 1.; im = sparse_entry st })
          in
          match solve b with
          | exception Lu.Singular k -> emit (Printf.sprintf "singular %d" k)
          | x ->
              Array.iter
                (fun (z : Complex.t) -> emit (hex z.Complex.re ^ "," ^ hex z.Complex.im))
                x
        done)
      [ 0.; 1e6; 2e9 ]
  done;
  List.rev !out

let linsys_expected =
  [|
    "558";
    "55c52b66e95138739eed6768ee87eb91";
    "-0x1.67c0ebf4aeedfp+1";
    "singular 4";
  |]

let test_linsys_batch () =
  let lines = linsys_batch () in
  let arr = Array.of_list lines in
  check_hex "Linsys seeded solves" linsys_expected
    [|
      string_of_int (Array.length arr);
      digest_of lines;
      arr.(0);
      arr.(Array.length arr - 1);
    |]

let suites =
  [
    ( "pins",
      [
        Alcotest.test_case "tran mixed sources %h" `Quick test_tran_mixed;
        Alcotest.test_case "tran OTA follower %h" `Quick test_tran_ota_follower;
        Alcotest.test_case "corner_amp enclosure %h" `Quick test_corner_amp;
        Alcotest.test_case "corner_fail enclosure %h" `Quick test_corner_fail;
        Alcotest.test_case "ota_testbench enclosure %h" `Quick test_corner_ota;
        Alcotest.test_case "MC session samples %h" `Quick test_session_samples;
        Alcotest.test_case "OTA output noise %h" `Quick test_noise_ota;
        Alcotest.test_case "Linsys seeded solves %h" `Quick test_linsys_batch;
      ] );
  ]
