(* Differential tests for the bracket-limited AC sweep: the optimiser's
   [evaluate] and the Monte Carlo [perf_in_session] stop the sweep once
   [Testbench.perf_stop] says the extraction is decided, and must return
   bit for bit — [None] included — what [perf_of_bode] gives on the full
   81-point grid. *)

module Gtb = Yield_circuits.Testbench
module Ota = Yield_circuits.Ota
module Miller = Yield_circuits.Miller
module Genome = Yield_ga.Genome
module Circuit = Yield_spice.Circuit
module Dcop = Yield_spice.Dcop
module Ac = Yield_spice.Ac
module Measure = Yield_spice.Measure
module Rng = Yield_stats.Rng
module Variation = Yield_process.Variation
module Metrics = Yield_obs.Metrics
module Fault = Yield_resilience.Fault

module Ota_tb = Gtb.Make (Ota)
module Miller_tb = Gtb.Make (Miller)

let bits = Int64.bits_of_float

let perf_bits = function
  | None -> None
  | Some (p : Gtb.perf) ->
      Some
        (List.map bits
           [
             p.Gtb.gain_db;
             p.Gtb.phase_margin_deg;
             p.Gtb.unity_gain_hz;
             p.Gtb.f3db_hz;
             p.Gtb.rout_est;
           ])

let check_same what ~full ~bracketed =
  if perf_bits full <> perf_bits bracketed then
    Alcotest.failf "%s: bracket-limited extraction differs from the full grid"
      what

(* the index [perf_stop] ends a sweep of [b] at: the prefix length *)
let stop_length (b : Ac.bode) =
  let stop = Gtb.perf_stop () in
  let n = Array.length b.Ac.response in
  let rec go i =
    if i >= n then n else if stop i b.Ac.response.(i) then i + 1 else go (i + 1)
  in
  go 0

let prefix (b : Ac.bode) m =
  { Ac.freqs = Array.sub b.Ac.freqs 0 m; response = Array.sub b.Ac.response 0 m }

(* ---------- designs across the parameter ranges ---------- *)

(* [evaluate] against [perf_of_bode] of the full-grid [bode], on [count]
   designs drawn uniformly (in the gene space) across [param_ranges]; also
   checks that some sweeps do stop early, so the comparison is not
   vacuous *)
let across_ranges (type p) name ~(ranges : Genome.range array)
    ~(of_array : float array -> p) ~(bode : p -> Ac.bode option)
    ~(evaluate : p -> Gtb.perf option) ~count =
  let enc = Genome.encoding ranges ~n_weights:0 in
  let rng = Rng.create 1717 in
  let early = ref 0 and feasible = ref 0 in
  for k = 1 to count do
    let params = of_array (Genome.params enc (Genome.random enc rng)) in
    let b = bode params in
    let full = Option.bind b (Gtb.perf_of_bode Gtb.default_conditions) in
    check_same (Printf.sprintf "%s design %d" name k) ~full
      ~bracketed:(evaluate params);
    (match b with
    | Some b when stop_length b < Array.length b.Ac.freqs -> incr early
    | Some _ | None -> ());
    if full <> None then incr feasible
  done;
  if !early = 0 || !feasible = 0 then
    Alcotest.failf "%s: %d early stops, %d extracted designs of %d" name !early
      !feasible count

let test_ota_designs () =
  across_ranges "ota" ~ranges:Ota.param_ranges ~of_array:Ota.params_of_array
    ~bode:(fun p -> Ota_tb.bode p)
    ~evaluate:(fun p -> Ota_tb.evaluate p)
    ~count:60

let test_miller_designs () =
  across_ranges "miller" ~ranges:Miller.param_ranges
    ~of_array:Miller.params_of_array
    ~bode:(fun p -> Miller_tb.bode p)
    ~evaluate:(fun p -> Miller_tb.evaluate p)
    ~count:40

(* ---------- Monte Carlo samples ---------- *)

let test_mc_samples () =
  let spec = Variation.default_spec in
  let ota = Ota_tb.session Ota.default_params in
  let miller = Miller_tb.session Miller.default_params in
  for seed = 1 to 25 do
    let models =
      Variation.overrides spec (Rng.create seed) (Ota_tb.session_circuit ota)
    in
    check_same (Printf.sprintf "ota sample %d" seed)
      ~full:
        (Option.bind (Ota_tb.bode_in_session ota models)
           (Gtb.perf_of_bode Gtb.default_conditions))
      ~bracketed:(Ota_tb.perf_in_session ota models);
    let models =
      Variation.overrides spec (Rng.create seed) (Miller_tb.session_circuit miller)
    in
    check_same (Printf.sprintf "miller sample %d" seed)
      ~full:
        (Option.bind (Miller_tb.bode_in_session miller models)
           (Gtb.perf_of_bode Gtb.default_conditions))
      ~bracketed:(Miller_tb.perf_in_session miller models)
  done

(* ---------- small circuits through the real sweep loop ---------- *)

(* an inverting transconductance stage: gain [gm * r] at DC, one pole at
   1 / (2 pi r c) *)
let gm_stage ~gm ~r ~c =
  let ckt = Circuit.create () in
  Circuit.add_vsource ckt ~name:"VIN" ~ac:1. "in" "0" 0.;
  Circuit.add_vccs ckt ~name:"G1" ~out_p:"out" ~out_n:"0" ~in_p:"in" ~in_n:"0" gm;
  Circuit.add_resistor ckt ~name:"R1" "out" "0" r;
  Circuit.add_capacitor ckt ~name:"C1" "out" "0" c;
  ckt

(* the sweep with and without the stop rule, and the prefix length *)
let sweep_both ckt =
  let op =
    match Dcop.solve ckt with
    | Ok op -> op
    | Error e -> Alcotest.fail (Dcop.error_to_string e)
  in
  let freqs = Gtb.freqs_of Gtb.default_conditions in
  let run ?stop () = Ac.transfer_by_name ?stop ckt op ~out:"out" ~freqs in
  let full = run () and cut = run ~stop:(Gtb.perf_stop ()) () in
  let conditions = Gtb.default_conditions in
  (Gtb.perf_of_bode conditions full, Gtb.perf_of_bode conditions cut,
   Array.length cut.Ac.freqs, Array.length freqs)

let test_small_circuits () =
  (* a healthy 40 dB stage: stops well before 1 GHz *)
  let full, cut, m, n = sweep_both (gm_stage ~gm:1e-1 ~r:1e3 ~c:1e-9) in
  check_same "40 dB stage" ~full ~bracketed:cut;
  if full = None || m >= n then Alcotest.failf "40 dB stage: %d of %d points" m n;
  (* DC gain below 3 dB (1.58 dB): the 0 dB crossing comes before the
     -3 dB one *)
  let full, cut, m, n = sweep_both (gm_stage ~gm:1.2e-3 ~r:1e3 ~c:1e-9) in
  check_same "1.58 dB stage" ~full ~bracketed:cut;
  if full = None || m >= n then Alcotest.failf "1.58 dB stage: %d of %d points" m n;
  (* no 0 dB crossing (-6 dB at DC): nothing decides early, so the whole
     grid is solved and both give None *)
  let full, cut, m, n = sweep_both (gm_stage ~gm:0.5e-3 ~r:1e3 ~c:1e-9) in
  check_same "-6 dB stage" ~full ~bracketed:cut;
  if full <> None || m <> n then Alcotest.failf "-6 dB stage: %d of %d points" m n

(* ---------- synthetic responses: the rule itself ---------- *)

(* a response with magnitude [mags.(i)] dB and phase [phases.(i)] degrees *)
let bode_of ~mags ~phases =
  let freqs = Gtb.freqs_of Gtb.default_conditions in
  let n = Array.length freqs in
  let response =
    Array.init n (fun i ->
        Complex.polar (10. ** (mags.(min i (Array.length mags - 1)) /. 20.))
          (phases.(min i (Array.length phases - 1)) *. Float.pi /. 180.))
  in
  { Ac.freqs; response }

let same_on_prefix what (b : Ac.bode) =
  let conditions = Gtb.default_conditions in
  let m = stop_length b in
  check_same what ~full:(Gtb.perf_of_bode conditions b)
    ~bracketed:(Gtb.perf_of_bode conditions (prefix b m));
  m

let test_exact_grid_crossing () =
  (* unity magnitude exactly on grid point 30: 1 + 0j is exactly 0 dB, so
     the crossing is bracketed by points 30 and 31 at t = 0 *)
  let n = Array.length (Gtb.freqs_of Gtb.default_conditions) in
  let response =
    Array.init n (fun i ->
        if i < 30 then { Complex.re = float_of_int (40 - i); im = -0.5 }
        else if i = 30 then Complex.one
        else { Complex.re = 0.5 /. float_of_int (i - 29); im = -0.5 })
  in
  let b = { Ac.freqs = Gtb.freqs_of Gtb.default_conditions; response } in
  if Measure.magnitude_db b.Ac.response.(30) <> 0. then
    Alcotest.fail "grid point 30 is not exactly 0 dB";
  let m = same_on_prefix "exact 0 dB grid point" b in
  if m >= n then Alcotest.fail "exact grid crossing: the sweep never stopped";
  (* the -3 dB level hit exactly on a grid point, and a phase that wraps
     through +-180 degrees before the unity crossing *)
  let mags =
    Array.init n (fun i ->
        if i < 10 then 9. else if i = 10 then 6. else 9. -. float_of_int i)
  in
  let phases = Array.init n (fun i -> -170. -. (4. *. float_of_int i)) in
  ignore (same_on_prefix "exact -3 dB grid point, wrapped phase" (bode_of ~mags ~phases))

let test_end_clamp () =
  (* 100 dB straight down to just below 0 dB: y0 - y1 rounds to 100, so the
     crossing's t is exactly 1 and the unity frequency is the grid point
     itself.  The full grid then interpolates the phase at t = 1, which can
     be an ulp off the point's own phase; a prefix ending at the crossing
     would clamp to that point instead.  The extra point [perf_stop] keeps
     is what makes the two agree, and the construction checks that it is
     exercised: dropping that point changes some answers *)
  let freqs = Gtb.freqs_of Gtb.default_conditions in
  let n = Array.length freqs in
  let conditions = Gtb.default_conditions in
  let clamped = ref 0 in
  List.iter
    (fun deg ->
      let r = 1. -. 4e-16 and theta = deg *. Float.pi /. 180. in
      let just_below = { Complex.re = r *. cos theta; im = r *. sin theta } in
      let y1 = Measure.magnitude_db just_below in
      if not (y1 < 0. && y1 > -7e-15) then Alcotest.failf "construction: %h dB" y1;
      for i = 2 to n - 4 do
        let response =
          Array.init n (fun k ->
              if k <= i then Complex.polar 1e5 (Float.pi /. 2.)
              else if k = i + 1 then just_below
              else Complex.polar 0.5 (-179. *. Float.pi /. 180.))
        in
        let b = { Ac.freqs = freqs; response } in
        let m = same_on_prefix (Printf.sprintf "end clamp %g deg at %d" deg i) b in
        if m <> i + 3 then Alcotest.failf "end clamp at %d: stopped after %d" i m;
        if perf_bits (Gtb.perf_of_bode conditions (prefix b (i + 2)))
           <> perf_bits (Gtb.perf_of_bode conditions b)
        then incr clamped
      done)
    [ -89.999; -89.7; -88.1 ];
  if !clamped = 0 then Alcotest.fail "end clamp: no case exercises the clamp"

let test_random_responses () =
  (* random falling magnitudes with plateaus, bumps and exact level hits,
     random phases: the prefix the rule keeps gives the full grid's value *)
  let st = Random.State.make [| 2026 |] in
  let n = Array.length (Gtb.freqs_of Gtb.default_conditions) in
  for k = 1 to 400 do
    let dc = Random.State.float st 20. -. 4. in
    let mags = Array.make n dc in
    for i = 1 to n - 1 do
      mags.(i) <-
        (match Random.State.int st 8 with
        | 0 -> mags.(i - 1)
        | 1 -> mags.(i - 1) +. Random.State.float st 2.
        | 2 -> 0.
        | 3 -> dc -. 3.
        | _ -> mags.(i - 1) -. Random.State.float st 3.)
    done;
    let phases = Array.init n (fun _ -> Random.State.float st 720. -. 360.) in
    ignore
      (same_on_prefix (Printf.sprintf "random response %d" k)
         (bode_of ~mags ~phases))
  done

(* ---------- fault injection ---------- *)

let test_injected_ac_fault () =
  let hits = Metrics.counter "fault.ac.solve.hits" in
  let with_fault f =
    Fun.protect ~finally:Fault.reset (fun () ->
        Fault.reset ();
        Fault.arm "ac.solve" (Fault.At 1);
        let h0 = Metrics.value hits in
        let r = f () in
        (r, Metrics.value hits - h0))
  in
  let params = Ota.default_params in
  let bracketed, hits_b = with_fault (fun () -> Ota_tb.evaluate params) in
  let full, hits_f =
    with_fault (fun () ->
        Option.bind (Ota_tb.bode params) (Gtb.perf_of_bode Gtb.default_conditions))
  in
  Alcotest.(check int) "one ac.solve hit per evaluation" hits_f hits_b;
  Alcotest.(check int) "exactly one" 1 hits_b;
  if bracketed <> None || full <> None then
    Alcotest.fail "an injected ac.solve fault must fail the evaluation";
  let session = Ota_tb.session params in
  let models =
    Variation.overrides Variation.default_spec (Rng.create 3)
      (Ota_tb.session_circuit session)
  in
  let bracketed, hits_b = with_fault (fun () -> Ota_tb.perf_in_session session models) in
  let full, hits_f =
    with_fault (fun () ->
        Option.bind (Ota_tb.bode_in_session session models)
          (Gtb.perf_of_bode Gtb.default_conditions))
  in
  Alcotest.(check int) "one ac.solve hit per sample" hits_f hits_b;
  if bracketed <> None || full <> None then
    Alcotest.fail "an injected ac.solve fault must fail the sample"

let suites =
  [
    ( "circuits.bracket",
      [
        Alcotest.test_case "ota designs across param_ranges" `Quick test_ota_designs;
        Alcotest.test_case "miller designs across param_ranges" `Quick
          test_miller_designs;
        Alcotest.test_case "mc samples (ota, miller)" `Quick test_mc_samples;
        Alcotest.test_case "small circuits: 40 dB, 1.58 dB, no crossing" `Quick
          test_small_circuits;
        Alcotest.test_case "crossings exactly on grid points" `Quick
          test_exact_grid_crossing;
        Alcotest.test_case "unity crossing at t = 1 (end clamp)" `Quick
          test_end_clamp;
        Alcotest.test_case "random responses" `Quick test_random_responses;
        Alcotest.test_case "injected ac.solve fault" `Quick test_injected_ac_fault;
      ] );
  ]
