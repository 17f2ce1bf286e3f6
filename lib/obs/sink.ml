let chrome_event (e : Span.event) =
  Json.Obj
    [
      ("name", Json.String e.Span.name);
      ("cat", Json.String "yieldlab");
      ("ph", Json.String "X");
      ("ts", Json.Float e.Span.ts_us);
      ("dur", Json.Float e.Span.dur_us);
      ("pid", Json.Int 1);
      ("tid", Json.Int e.Span.tid);
    ]

let counter_json (name, v) =
  Json.Obj
    [
      ("type", Json.String "counter");
      ("name", Json.String name);
      ("value", Json.Int v);
    ]

let histogram_fields (s : Histogram.summary) =
  [
    ("count", Json.Int s.Histogram.count);
    ("sum", Json.Float s.Histogram.sum);
    ("mean", Json.Float s.Histogram.mean);
    ("min", Json.Float s.Histogram.min);
    ("max", Json.Float s.Histogram.max);
    ("p50", Json.Float s.Histogram.p50);
    ("p90", Json.Float s.Histogram.p90);
    ("p95", Json.Float s.Histogram.p95);
    ("p99", Json.Float s.Histogram.p99);
  ]

let histogram_json (name, summary) =
  Json.Obj
    (("type", Json.String "histogram")
    :: ("name", Json.String name)
    :: histogram_fields summary)

let span_json (e : Span.event) =
  Json.Obj
    [
      ("type", Json.String "span");
      ("name", Json.String e.Span.name);
      ("ts_us", Json.Float e.Span.ts_us);
      ("dur_us", Json.Float e.Span.dur_us);
      ("tid", Json.Int e.Span.tid);
      ("depth", Json.Int e.Span.depth);
    ]

(* inverse of [span_json]; fields it does not know (the [key] of older
   logs) are ignored *)
let span_of_json j =
  let number k = Option.bind (Json.member k j) Json.number_value in
  let int k = Option.map int_of_float (number k) in
  match
    (Option.bind (Json.member "name" j) Json.string_value,
     number "ts_us", number "dur_us", int "tid", int "depth")
  with
  | Some name, Some ts_us, Some dur_us, Some tid, Some depth ->
      Some { Span.name; ts_us; dur_us; tid; depth }
  | _ -> None

let jsonl_of (snap : Metrics.snapshot) =
  let b = Buffer.create 1024 in
  let line j =
    Buffer.add_string b (Json.to_string j);
    Buffer.add_char b '\n'
  in
  List.iter (fun c -> line (counter_json c)) snap.Metrics.counters;
  List.iter (fun h -> line (histogram_json h)) snap.Metrics.histograms;
  Buffer.contents b

let text_of (snap : Metrics.snapshot) =
  let b = Buffer.create 1024 in
  if snap.Metrics.counters <> [] then begin
    Buffer.add_string b "counters:\n";
    List.iter
      (fun (name, v) -> Printf.bprintf b "  %-32s %12d\n" name v)
      snap.Metrics.counters
  end;
  if snap.Metrics.histograms <> [] then begin
    Buffer.add_string b "histograms:\n";
    List.iter
      (fun (name, (s : Histogram.summary)) ->
        if s.Histogram.count = 0 then
          Printf.bprintf b "  %-32s n=0        (empty)\n" name
        else
          Printf.bprintf b
            "  %-32s n=%-8d mean=%-10.4g p50=%-10.4g p95=%-10.4g p99=%-10.4g \
             min=%-10.4g max=%.4g\n"
            name s.Histogram.count s.Histogram.mean s.Histogram.p50
            s.Histogram.p95 s.Histogram.p99 s.Histogram.min s.Histogram.max)
      snap.Metrics.histograms
  end;
  Buffer.contents b

(* atomic (temp + rename), open-coded: [Yield_resilience.Atomic_io] is the
   shared implementation but depends on this library, so the sink cannot
   use it without a cycle *)
let write_file ~path s =
  let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  (match
     Out_channel.with_open_text tmp (fun oc -> Out_channel.output_string oc s)
   with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp path

let write_metrics_jsonl ~path () =
  write_file ~path (jsonl_of (Metrics.snapshot ()))
