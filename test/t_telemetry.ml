(* End-to-end tests of the streaming telemetry path and the perf-regression
   gate: a reduced-scale flow streamed to disk (the trace holds every span
   the run closed), periodic snapshot deltas, and the Perf_gate
   tolerance/identity rules. *)

module Json = Yield_obs.Json
module Histogram = Yield_obs.Histogram
module Metrics = Yield_obs.Metrics
module Span = Yield_obs.Span
module Stream = Yield_obs.Stream
module Metric_deltas = Yield_obs.Metric_deltas
module Obs = Yield_obs.Obs
module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Perf_gate = Yield_core.Perf_gate
module Ga = Yield_ga.Ga

let temp_path suffix = Filename.temp_file "yieldlab_t_telemetry" suffix

let with_temp suffix f =
  let path = temp_path suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* the t_core smoke configuration: the whole flow in a few seconds *)
let smoke_config =
  {
    Config.fast_scale with
    Config.ga =
      { Ga.default_config with Ga.population_size = 24; generations = 12 };
    mc_samples = 12;
    front_stride = 2;
    seed = 31;
  }

(* total observations over the span.* histograms: one per closed span *)
let span_count () =
  List.fold_left
    (fun acc (name, (h : Histogram.summary)) ->
      if String.starts_with ~prefix:"span." name then acc + h.Histogram.count
      else acc)
    0 (Metrics.snapshot ()).Metrics.histograms

(* ---------- streamed flow: the trace holds every span ---------- *)

let test_flow_trace_complete () =
  with_temp ".jsonl" (fun path ->
      let before = span_count () in
      Obs.start_stream ~snapshot_every_s:0.001 ~path ();
      Alcotest.(check bool) "stream active" true (Obs.stream_active ());
      Fun.protect
        ~finally:(fun () -> ignore (Obs.stop_stream ()))
        (fun () -> ignore (Flow.run smoke_config));
      let closed = span_count () - before in
      Alcotest.(check bool) "stream stopped" false (Obs.stream_active ());
      let r = Stream.read_jsonl ~path in
      Alcotest.(check bool) "clean shutdown, no truncation" false
        r.Stream.truncated;
      let streamed = Stream.spans_of_lines r.Stream.lines in
      Alcotest.(check int) "one span line per closed span" closed
        (List.length streamed);
      (* flow stage spans reached the file *)
      List.iter
        (fun stage ->
          Alcotest.(check bool) (stage ^ " streamed") true
            (List.exists (fun (e : Span.event) -> e.Span.name = stage) streamed))
        [ "flow.run"; "flow.wbga"; "flow.mc"; "ga.generation"; "mc.batch" ];
      (* snapshots rode the stream, and the final metric lines match the
         registry *)
      let of_type ty =
        List.filter
          (fun j -> Json.member "type" j = Some (Json.String ty))
          r.Stream.lines
      in
      Alcotest.(check bool) "snapshot lines present" true
        (List.length (of_type "snapshot") >= 1);
      let snap = Metrics.snapshot () in
      let counter_lines = of_type "counter" in
      Alcotest.(check int) "one final line per counter"
        (List.length snap.Metrics.counters)
        (List.length counter_lines);
      List.iter
        (fun (name, v) ->
          match
            List.find_opt
              (fun j -> Json.member "name" j = Some (Json.String name))
              counter_lines
          with
          | None -> Alcotest.failf "counter %s missing from stream" name
          | Some j ->
              Alcotest.(check bool) (name ^ " value") true
                (Json.member "value" j = Some (Json.Int v)))
        snap.Metrics.counters)

(* ---------- periodic snapshots ---------- *)

let test_snapshot_deltas () =
  let emitted = ref [] in
  let snap =
    Metric_deltas.create ~every_s:3600. ~emit:(fun j -> emitted := j :: !emitted)
  in
  Metric_deltas.tick snap;
  Alcotest.(check int) "not due yet" 0 (List.length !emitted);
  let c = Metrics.counter "t.snapshot.counter" in
  Metrics.add c 5;
  Metric_deltas.force snap;
  Metrics.add c 2;
  Metric_deltas.force snap;
  match List.rev !emitted with
  | [ first; second ] ->
      let delta_of j =
        match Json.member "counters" j with
        | Some counters ->
            Option.bind
              (Json.member "t.snapshot.counter" counters)
              (Json.member "delta")
        | None -> None
      in
      Alcotest.(check bool) "first snapshot carries the full value as delta"
        true
        (delta_of first = Some (Json.Int 5)
        || (* other suites may have touched the counter before us: the
              first delta is then value-relative, but the second is exact *)
        Option.is_some (delta_of first));
      Alcotest.(check bool) "second snapshot carries only the increment" true
        (delta_of second = Some (Json.Int 2));
      Alcotest.(check int) "two emissions counted" 2 (Metric_deltas.emitted snap);
      (* an interval that never elapses (or is not a number) is refused *)
      List.iter
        (fun every_s ->
          match Metric_deltas.create ~every_s ~emit:ignore with
          | _ -> Alcotest.failf "every_s = %g accepted" every_s
          | exception Invalid_argument _ -> ())
        [ Float.nan; Float.infinity; 0.; -1. ]
  | l -> Alcotest.failf "expected 2 snapshots, got %d" (List.length l)

(* ---------- the perf-regression gate ---------- *)

let bench_fixture ?(opt_s = 10.) ?(mc_s = 4.) ?(total_s = 15.) ?(mc_sims = 840)
    ?(counters = [ ("mc.samples.attempted", 840); ("wbga.evaluations", 288) ])
    () =
  Json.Obj
    [
      ("scale", Json.String "reduced-scale");
      ("jobs", Json.Int 1);
      ( "stage_s",
        Json.Obj
          [
            ("optimisation", Json.Float opt_s);
            ("mc", Json.Float mc_s);
            ("total", Json.Float total_s);
          ] );
      ( "sim_counts",
        Json.Obj [ ("mc", Json.Int mc_sims); ("total", Json.Int 1128) ] );
      ( "counters",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) counters) );
      ("histograms", Json.Obj [ ("span.flow.run", Json.Obj []) ]);
    ]

let tight = { Perf_gate.frac = 0.10; abs_s = 0. }

let baseline ?tolerance fixture =
  Perf_gate.baseline_of_bench ?tolerance fixture

let fields findings = List.map (fun f -> f.Perf_gate.field) findings

let test_gate_passes_on_itself () =
  let fixture = bench_fixture () in
  Alcotest.(check (list string)) "no findings against itself" []
    (fields (Perf_gate.check ~baseline:(baseline ~tolerance:tight fixture)
               ~bench:fixture))

let test_gate_catches_timing_regression () =
  let base = baseline ~tolerance:tight (bench_fixture ()) in
  (* the acceptance fixture: a 20 % slowdown must fail a 10 % gate *)
  let slowed = bench_fixture ~opt_s:12. ~total_s:17. () in
  let found = fields (Perf_gate.check ~baseline:base ~bench:slowed) in
  Alcotest.(check bool) "optimisation flagged" true
    (List.mem "stage_s.optimisation" found);
  Alcotest.(check bool) "total flagged" true (List.mem "stage_s.total" found);
  Alcotest.(check bool) "mc untouched" false (List.mem "stage_s.mc" found);
  (* 5 % stays inside the 10 % tolerance *)
  Alcotest.(check (list string)) "5 % passes" []
    (fields
       (Perf_gate.check ~baseline:base ~bench:(bench_fixture ~opt_s:10.5 ())));
  (* a faster run never fails *)
  Alcotest.(check (list string)) "speedup passes" []
    (fields
       (Perf_gate.check ~baseline:base ~bench:(bench_fixture ~opt_s:5. ())))

let test_gate_absolute_slack () =
  (* the checked-in baseline carries abs_s slack for cross-machine noise:
     2 s of absolute drift passes, counts still gate exactly *)
  let base = baseline (bench_fixture ~opt_s:0.5 ()) in
  Alcotest.(check (list string)) "constant-factor drift absorbed" []
    (fields
       (Perf_gate.check ~baseline:base ~bench:(bench_fixture ~opt_s:2.2 ())));
  let drifted = bench_fixture ~opt_s:0.5 ~mc_sims:841 () in
  Alcotest.(check bool) "sim-count drift still fails" true
    (List.mem "sim_counts.mc"
       (fields (Perf_gate.check ~baseline:base ~bench:drifted)))

let test_gate_catches_count_and_counter_drift () =
  let base = baseline ~tolerance:tight (bench_fixture ()) in
  let value_drift =
    bench_fixture ~counters:[ ("mc.samples.attempted", 839); ("wbga.evaluations", 288) ] ()
  in
  Alcotest.(check bool) "counter value drift" true
    (List.mem "counters.mc.samples.attempted"
       (fields (Perf_gate.check ~baseline:base ~bench:value_drift)));
  let vanished =
    bench_fixture ~counters:[ ("mc.samples.attempted", 840) ] ()
  in
  Alcotest.(check bool) "vanished counter" true
    (List.mem "counters.wbga.evaluations"
       (fields (Perf_gate.check ~baseline:base ~bench:vanished)));
  let appeared =
    bench_fixture
      ~counters:
        [
          ("mc.samples.attempted", 840);
          ("wbga.evaluations", 288);
          ("t.new_counter", 3);
        ]
      ()
  in
  Alcotest.(check bool) "new counter needs a baseline refresh" true
    (List.mem "counters.t.new_counter"
       (fields (Perf_gate.check ~baseline:base ~bench:appeared)))

let test_gate_run_identity () =
  let base = baseline ~tolerance:tight (bench_fixture ()) in
  let other_scale =
    match bench_fixture () with
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (function
               | "scale", _ -> ("scale", Json.String "paper-scale")
               | kv -> kv)
             kvs)
    | j -> j
  in
  Alcotest.(check bool) "scale mismatch flagged" true
    (List.mem "scale"
       (fields (Perf_gate.check ~baseline:base ~bench:other_scale)))

let test_baseline_of_bench_shape () =
  let b = baseline (bench_fixture ()) in
  Alcotest.(check bool) "schema tag" true
    (Json.member "schema" b
    = Some (Json.String "yieldlab-bench-baseline/v1"));
  Alcotest.(check bool) "histograms dropped (timing noise)" true
    (Json.member "histograms" b = None);
  Alcotest.(check bool) "tolerance block present" true
    (Option.is_some (Json.member "tolerance" b));
  (* a written baseline round-trips through the parser *)
  let reparsed = Json.parse (Json.to_string b) in
  Alcotest.(check (list string)) "reparsed baseline accepts its own bench" []
    (fields (Perf_gate.check ~baseline:reparsed ~bench:(bench_fixture ())))

let suites =
  [
    ( "telemetry.stream",
      [
        Alcotest.test_case "flow: every span traced" `Slow
          test_flow_trace_complete;
        Alcotest.test_case "snapshot deltas" `Quick test_snapshot_deltas;
      ] );
    ( "telemetry.perf-gate",
      [
        Alcotest.test_case "passes on itself" `Quick test_gate_passes_on_itself;
        Alcotest.test_case "timing regression" `Quick
          test_gate_catches_timing_regression;
        Alcotest.test_case "absolute slack" `Quick test_gate_absolute_slack;
        Alcotest.test_case "count and counter drift" `Quick
          test_gate_catches_count_and_counter_drift;
        Alcotest.test_case "run identity" `Quick test_gate_run_identity;
        Alcotest.test_case "baseline shape" `Quick test_baseline_of_bench_shape;
      ] );
  ]
