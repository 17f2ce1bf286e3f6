(* Tests for the yield_obs telemetry library: span nesting and per-domain
   merging on the event bus, histogram quantiles, counter atomicity across
   domains, JSON / JSONL / Chrome-trace serialisation round-trips, the
   streaming sink and its write-error contract — plus the determinism
   contract of the instrumented Monte Carlo driver. *)

module Json = Yield_obs.Json
module Histogram = Yield_obs.Histogram
module Metrics = Yield_obs.Metrics
module Span = Yield_obs.Span
module Sink = Yield_obs.Sink
module Stream = Yield_obs.Stream
module Obs = Yield_obs.Obs
module Montecarlo = Yield_process.Montecarlo
module Pool = Yield_exec.Pool
module Rng = Yield_stats.Rng

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

(* ---------- spans ---------- *)

(* run [f] with a bus listener collecting every closed span, from any
   domain, in close order *)
let closed_spans f =
  let lock = Mutex.create () in
  let seen = ref [] in
  let id =
    Span.subscribe (fun phase e ->
        if phase = Span.Closed then
          Mutex.protect lock (fun () -> seen := e :: !seen))
  in
  let v = Fun.protect ~finally:(fun () -> Span.unsubscribe id) f in
  (v, List.rev !seen)

let named name =
  List.filter (fun (e : Span.event) -> e.Span.name = name)

let test_span_nesting () =
  let v, spans =
    closed_spans (fun () ->
        Span.with_ ~name:"t.outer" (fun () ->
            let a = Span.with_ ~name:"t.inner" (fun () -> 20) in
            let b = Span.with_ ~name:"t.inner" (fun () -> 22) in
            a + b))
  in
  Alcotest.(check int) "value through spans" 42 v;
  let outer =
    match named "t.outer" spans with
    | [ e ] -> e
    | es -> Alcotest.failf "expected 1 outer event, got %d" (List.length es)
  in
  let inners = named "t.inner" spans in
  Alcotest.(check int) "two inner events" 2 (List.length inners);
  Alcotest.(check int) "outer at depth 0" 0 outer.Span.depth;
  List.iter
    (fun (e : Span.event) ->
      Alcotest.(check int) "inner at depth 1" 1 e.Span.depth;
      Alcotest.(check int) "same domain" outer.Span.tid e.Span.tid;
      Alcotest.(check bool) "inner starts after outer" true
        (e.Span.ts_us >= outer.Span.ts_us);
      Alcotest.(check bool) "inner ends before outer" true
        (e.Span.ts_us +. e.Span.dur_us
        <= outer.Span.ts_us +. outer.Span.dur_us +. 1e-6))
    inners

let test_span_survives_exception () =
  let (), spans =
    closed_spans (fun () ->
        try Span.with_ ~name:"t.raises" (fun () -> failwith "boom")
        with Failure _ -> ())
  in
  Alcotest.(check int) "event recorded despite raise" 1
    (List.length (named "t.raises" spans))

let test_span_merges_domains () =
  let (), spans =
    closed_spans (fun () ->
        let domains =
          Array.init 3 (fun i ->
              Domain.spawn (fun () ->
                  Span.with_ ~name:"t.domain" (fun () ->
                      ignore (Sys.opaque_identity i))))
        in
        Array.iter Domain.join domains;
        Span.with_ ~name:"t.domain" (fun () -> ()))
  in
  let es = named "t.domain" spans in
  Alcotest.(check int) "events from every domain survive the join" 4
    (List.length es);
  let tids = List.sort_uniq compare (List.map (fun e -> e.Span.tid) es) in
  Alcotest.(check int) "distinct domain ids" 4 (List.length tids)

let test_bus_sees_open_and_close () =
  let seen = ref [] in
  let id =
    Span.subscribe (fun phase (e : Span.event) ->
        if e.Span.name = "t.bus" then seen := (phase, e.Span.dur_us) :: !seen)
  in
  Fun.protect
    ~finally:(fun () -> Span.unsubscribe id)
    (fun () ->
      Span.with_ ~name:"t.bus" (fun () -> ());
      match List.rev !seen with
      | [ (Span.Opened, d0); (Span.Closed, d1) ] ->
          check_float "open event has no duration yet" 0. d0;
          Alcotest.(check bool) "close event has the duration" true (d1 >= 0.)
      | other -> Alcotest.failf "expected open+close, saw %d" (List.length other));
  Span.with_ ~name:"t.bus" (fun () -> ());
  Alcotest.(check int) "unsubscribed listener is silent" 2 (List.length !seen)

(* ---------- histograms ---------- *)

let test_histogram_quantiles () =
  let h = Histogram.create () in
  (* 1..100 in a scrambled order: quantiles must not depend on arrival *)
  let xs = Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  Array.iter (Histogram.observe h) xs;
  let s = Histogram.summarize h in
  Alcotest.(check int) "count" 100 s.Histogram.count;
  check_float "sum" 5050. s.Histogram.sum;
  check_float "mean" 50.5 s.Histogram.mean;
  check_float "min" 1. s.Histogram.min;
  check_float "max" 100. s.Histogram.max;
  check_float "p50 (exact on interpolated order stats)" 50.5 s.Histogram.p50;
  check_float "p90" 90.1 s.Histogram.p90;
  check_float "p95" 95.05 s.Histogram.p95;
  check_float "p99" 99.01 s.Histogram.p99;
  check_float "quantile 0" 1. (Histogram.quantile h 0.);
  check_float "quantile 1" 100. (Histogram.quantile h 1.)

let test_histogram_reservoir () =
  (* beyond capacity the moments stay exact and quantiles stay plausible *)
  let h = Histogram.create ~capacity:64 () in
  for i = 1 to 10_000 do
    Histogram.observe h (float_of_int i)
  done;
  let s = Histogram.summarize h in
  Alcotest.(check int) "count exact" 10_000 s.Histogram.count;
  check_float "min exact" 1. s.Histogram.min;
  check_float "max exact" 10_000. s.Histogram.max;
  check_float "mean exact" 5000.5 s.Histogram.mean;
  Alcotest.(check bool) "p50 in bulk" true
    (s.Histogram.p50 > 2000. && s.Histogram.p50 < 8000.)

let test_histogram_empty () =
  let h = Histogram.create () in
  let s = Histogram.summarize h in
  Alcotest.(check int) "count" 0 s.Histogram.count;
  check_float "sum of empty" 0. s.Histogram.sum;
  (* no observations means no min/max/quantiles — nan, not a fake 0 that a
     dashboard would read as "the fastest span took 0 s" *)
  List.iter
    (fun (what, v) ->
      Alcotest.(check bool) (what ^ " of empty is nan") true (Float.is_nan v))
    [
      ("mean", s.Histogram.mean);
      ("min", s.Histogram.min);
      ("max", s.Histogram.max);
      ("p50", s.Histogram.p50);
      ("p95", s.Histogram.p95);
      ("p99", s.Histogram.p99);
    ];
  (* and the JSON sinks therefore emit null for them *)
  match Sink.histogram_fields s |> List.assoc "min" |> Json.to_string with
  | "null" -> ()
  | other -> Alcotest.failf "empty min serialised as %s, want null" other

(* ---------- metrics registry ---------- *)

let test_counter_concurrent () =
  let c = Metrics.counter "t.concurrent" in
  let before = Metrics.value c in
  let per_domain = 25_000 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "no lost increments" (4 * per_domain)
    (Metrics.value c - before)

let test_registry_shares_handles () =
  let a = Metrics.counter "t.shared" in
  let b = Metrics.counter "t.shared" in
  let v0 = Metrics.value a in
  Metrics.add b 5;
  Alcotest.(check int) "same instrument" (v0 + 5) (Metrics.value a);
  let snap = Metrics.snapshot () in
  Alcotest.(check bool) "snapshot contains the counter" true
    (List.mem_assoc "t.shared" snap.Metrics.counters)

(* ---------- serialisation ---------- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd\te");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5e-7);
        ("whole", Json.Float 3.0);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 2.25; Json.String "x" ]);
        ("o", Json.Obj [ ("nested", Json.Bool false) ]);
      ]
  in
  let text = Json.to_string j in
  (match Json.parse text with
  | Json.Obj kvs ->
      Alcotest.(check int) "all members" 8 (List.length kvs);
      Alcotest.(check string) "string escapes" "a\"b\\c\nd\te"
        (Option.get (Json.string_value (List.assoc "s" kvs)));
      Alcotest.(check bool) "int" true (List.assoc "i" kvs = Json.Int (-42));
      check_float "float" 1.5e-7
        (Option.get (Json.number_value (List.assoc "f" kvs)));
      check_float "whole float" 3.0
        (Option.get (Json.number_value (List.assoc "whole" kvs)))
  | _ -> Alcotest.fail "parsed to a non-object");
  (* second round trip is a fixpoint *)
  Alcotest.(check string) "fixpoint" text (Json.to_string (Json.parse text))

let test_chrome_trace_roundtrip () =
  let events =
    [
      { Span.name = "alpha"; ts_us = 10.5; dur_us = 1000.25; tid = 0; depth = 0 };
      { Span.name = "beta"; ts_us = 20.; dur_us = 4.; tid = 3; depth = 1 };
    ]
  in
  let text = Json.to_string (Json.List (List.map Sink.chrome_event events)) in
  match Json.parse text with
  | Json.List items ->
      Alcotest.(check int) "one trace event per span" 2 (List.length items);
      List.iter2
        (fun (e : Span.event) item ->
          let get k = Option.get (Json.member k item) in
          Alcotest.(check string) "name" e.Span.name
            (Option.get (Json.string_value (get "name")));
          Alcotest.(check string) "complete event" "X"
            (Option.get (Json.string_value (get "ph")));
          check_float "ts" e.Span.ts_us
            (Option.get (Json.number_value (get "ts")));
          check_float "dur" e.Span.dur_us
            (Option.get (Json.number_value (get "dur")));
          check_float "pid" 1. (Option.get (Json.number_value (get "pid")));
          check_float "tid" (float_of_int e.Span.tid)
            (Option.get (Json.number_value (get "tid"))))
        events items
  | _ -> Alcotest.fail "chrome trace is not a JSON array"

let test_jsonl_roundtrip () =
  let h = Metrics.histogram "t.jsonl.hist" in
  for i = 1 to 10 do
    Metrics.observe h (float_of_int i)
  done;
  Metrics.add (Metrics.counter "t.jsonl.counter") 7;
  let text = Sink.jsonl_of (Metrics.snapshot ()) in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "several lines" true (List.length lines >= 2);
  let parsed = List.map Json.parse lines in
  let of_type ty name =
    List.find_opt
      (fun j ->
        Json.member "type" j = Some (Json.String ty)
        && Json.member "name" j = Some (Json.String name))
      parsed
  in
  (match of_type "counter" "t.jsonl.counter" with
  | Some j ->
      Alcotest.(check bool) "counter value present" true
        (match Json.member "value" j with Some (Json.Int v) -> v >= 7 | _ -> false)
  | None -> Alcotest.fail "counter line missing");
  match of_type "histogram" "t.jsonl.hist" with
  | Some j ->
      List.iter
        (fun field ->
          Alcotest.(check bool) (field ^ " present") true
            (Option.is_some (Json.member field j)))
        [ "count"; "sum"; "mean"; "min"; "max"; "p50"; "p90"; "p95"; "p99" ]
  | None -> Alcotest.fail "histogram line missing"

(* ---------- streaming sink ---------- *)

let temp_path suffix =
  Filename.temp_file "yieldlab_t_obs" suffix

let test_stream_jsonl_roundtrip () =
  let path = temp_path ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = Stream.create ~path () in
      Alcotest.(check bool) "jsonl by extension" true
        (Stream.format s = Stream.Jsonl);
      let events =
        List.init 5 (fun i ->
            {
              Span.name = "t.stream";
              ts_us = float_of_int (10 * i);
              dur_us = 3.5;
              tid = 0;
              depth = i;
            })
      in
      List.iter
        (fun e ->
          Stream.write_event s Span.Opened e;
          Stream.write_event s Span.Closed e)
        events;
      Alcotest.(check bool) "clean close" true (Stream.close s = Ok ());
      Alcotest.(check bool) "close is idempotent" true (Stream.close s = Ok ());
      let r = Stream.read_jsonl ~path in
      Alcotest.(check bool) "no truncation" false r.Stream.truncated;
      Alcotest.(check int) "open + close lines" 10 (List.length r.Stream.lines);
      let back = Stream.spans_of_lines r.Stream.lines in
      Alcotest.(check int) "span lines decode" 5 (List.length back);
      List.iter2
        (fun (a : Span.event) (b : Span.event) ->
          Alcotest.(check string) "name" a.Span.name b.Span.name;
          Alcotest.(check int) "depth" a.Span.depth b.Span.depth;
          check_float "ts" a.Span.ts_us b.Span.ts_us)
        events back)

let test_stream_tolerates_truncated_tail () =
  let path = temp_path ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = Stream.create ~path () in
      Stream.write_json s (Json.Obj [ ("type", Json.String "counter") ]);
      Stream.write_json s (Json.Obj [ ("type", Json.String "counter") ]);
      ignore (Stream.close s);
      (* simulate a crash mid-write: chop the file inside the final line *)
      let text = In_channel.with_open_bin path In_channel.input_all in
      let chopped = String.sub text 0 (String.length text - 4) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc chopped);
      let r = Stream.read_jsonl ~path in
      Alcotest.(check bool) "truncation reported" true r.Stream.truncated;
      Alcotest.(check int) "complete lines survive" 1 (List.length r.Stream.lines))

let test_stream_chrome_crash_loadable () =
  let path = temp_path ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = Stream.create ~path () in
      Alcotest.(check bool) "chrome by extension" true
        (Stream.format s = Stream.Chrome);
      let e =
        { Span.name = "t.ct"; ts_us = 1.; dur_us = 2.; tid = 0; depth = 0 }
      in
      Stream.write_event s Span.Closed e;
      Stream.write_event s Span.Closed e;
      (* no close: the on-disk state is what a crash leaves behind; the
         array is unterminated but every written element is complete *)
      let text = In_channel.with_open_bin path In_channel.input_all in
      (match Json.parse (text ^ "]") with
      | Json.List items ->
          Alcotest.(check int) "both events present" 2 (List.length items)
      | _ -> Alcotest.fail "not an array");
      ignore (Stream.close s);
      match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Json.List items ->
          Alcotest.(check int) "closed file parses as-is" 2 (List.length items)
      | _ -> Alcotest.fail "closed file is not an array")

(* a write error (ENOSPC from /dev/full) must not escape into the
   instrumented code: spans keep closing, and stopping reports the error *)
let test_stream_write_error () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  Alcotest.(check bool) "no stream armed yet" false (Obs.stream_active ());
  Obs.start_stream ~path:"/dev/full" ();
  let raised =
    match
      for _ = 1 to 3 do
        Span.with_ ~name:"t.full" (fun () -> ())
      done
    with
    | () -> None
    | exception e -> Some e
  in
  let stopped = Obs.stop_stream () in
  Option.iter
    (fun e -> Alcotest.failf "span close raised %s" (Printexc.to_string e))
    raised;
  Alcotest.(check bool) "stop reports the error" true (Result.is_error stopped);
  Alcotest.(check bool) "and reports it once" true (Obs.stop_stream () = Ok ());
  (* the Chrome framing is written at create time; its error is kept too *)
  let s = Stream.create ~format:Stream.Chrome ~path:"/dev/full" () in
  Stream.write_json s (Json.Int 1);
  Alcotest.(check bool) "chrome close reports the error" true
    (Result.is_error (Stream.close s))

(* ---------- instrumented Monte Carlo ---------- *)

let test_mc_counted_determinism () =
  let f (r : Rng.t) =
    let x = Rng.float r in
    if x < 0.3 then None else Some (x +. Rng.float r)
  in
  let serial = Montecarlo.run_counted ~samples:64 ~rng:(Rng.create 5) f in
  let parallel =
    Pool.with_pool ~jobs:4 (fun pool ->
        Montecarlo.run_pool_counted ~pool ~samples:64 ~rng:(Rng.create 5) f)
  in
  Alcotest.(check bool) "identical results" true
    (serial.Montecarlo.results = parallel.Montecarlo.results);
  Alcotest.(check int) "same attempted" serial.Montecarlo.attempted
    parallel.Montecarlo.attempted;
  Alcotest.(check int) "same failed" serial.Montecarlo.failed
    parallel.Montecarlo.failed;
  Alcotest.(check int) "attempted = samples" 64 serial.Montecarlo.attempted;
  Alcotest.(check int) "accounting adds up" 64
    (Array.length serial.Montecarlo.results + serial.Montecarlo.failed)

let test_mc_feeds_counters () =
  let attempted = Metrics.counter "mc.samples.attempted" in
  let failed = Metrics.counter "mc.samples.failed" in
  let a0 = Metrics.value attempted and f0 = Metrics.value failed in
  let outcome =
    Montecarlo.run_counted ~samples:50 ~rng:(Rng.create 1) (fun r ->
        let x = Rng.float r in
        if x < 0.5 then None else Some x)
  in
  Alcotest.(check int) "attempted counter delta" 50
    (Metrics.value attempted - a0);
  Alcotest.(check int) "failed counter delta" outcome.Montecarlo.failed
    (Metrics.value failed - f0);
  Alcotest.(check bool) "some failed in this stream" true
    (outcome.Montecarlo.failed > 0)

let suites =
  [
    ( "obs.span",
      [
        Alcotest.test_case "nesting" `Quick test_span_nesting;
        Alcotest.test_case "exception safety" `Quick test_span_survives_exception;
        Alcotest.test_case "domain merge" `Quick test_span_merges_domains;
        Alcotest.test_case "bus open/close" `Quick test_bus_sees_open_and_close;
      ] );
    ( "obs.histogram",
      [
        Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
        Alcotest.test_case "reservoir" `Quick test_histogram_reservoir;
        Alcotest.test_case "empty" `Quick test_histogram_empty;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "concurrent counters" `Quick test_counter_concurrent;
        Alcotest.test_case "shared handles" `Quick test_registry_shares_handles;
      ] );
    ( "obs.serialisation",
      [
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "chrome trace" `Quick test_chrome_trace_roundtrip;
        Alcotest.test_case "jsonl" `Quick test_jsonl_roundtrip;
      ] );
    ( "obs.stream",
      [
        Alcotest.test_case "jsonl roundtrip" `Quick test_stream_jsonl_roundtrip;
        Alcotest.test_case "truncated tail" `Quick
          test_stream_tolerates_truncated_tail;
        Alcotest.test_case "chrome crash-loadable" `Quick
          test_stream_chrome_crash_loadable;
        Alcotest.test_case "write error" `Quick test_stream_write_error;
      ] );
    ( "obs.montecarlo",
      [
        Alcotest.test_case "counted determinism" `Quick
          test_mc_counted_determinism;
        Alcotest.test_case "feeds counters" `Quick test_mc_feeds_counters;
      ] );
  ]
