let verbose_sub : int option ref = ref None

let set_verbose v =
  match (v, !verbose_sub) with
  | true, None ->
      verbose_sub :=
        Some
          (Span.subscribe (fun phase (e : Span.event) ->
               match phase with
               | Span.Opened -> ()
               | Span.Closed ->
                   Printf.eprintf "[span] %*s%s %.3f ms\n%!" (2 * e.Span.depth)
                     "" e.Span.name (e.Span.dur_us /. 1e3)))
  | false, Some id ->
      Span.unsubscribe id;
      verbose_sub := None
  | _ -> ()

(* ---------- the trace stream ---------- *)

type stream_state = {
  stream : Stream.t;
  sub : int;
  snapshot : Metric_deltas.t option;
}

let active : stream_state option ref = ref None

let stream_active () = Option.is_some !active

let start_stream ?snapshot_every_s ~path () =
  match !active with
  | Some _ -> ()
  | None ->
      let stream = Stream.create ~path () in
      let snapshot =
        try
          Option.map
            (fun every_s ->
              Metric_deltas.create ~every_s ~emit:(Stream.write_json stream))
            snapshot_every_s
        with Invalid_argument _ as e ->
          ignore (Stream.close stream);
          raise e
      in
      let sub =
        Span.subscribe (fun phase e ->
            Stream.write_event stream phase e;
            (* snapshots ride span closes: no timer thread needed, and a
               run busy enough to need snapshots closes spans constantly *)
            if phase = Span.Closed then Option.iter Metric_deltas.tick snapshot)
      in
      active := Some { stream; sub; snapshot }

let stop_stream () =
  match !active with
  | None -> Ok ()
  | Some { stream; sub; snapshot } ->
      active := None;
      Span.unsubscribe sub;
      Option.iter Metric_deltas.force snapshot;
      (* final registry state as ordinary metric lines, so the stream alone
         holds what a --metrics file would *)
      if Stream.format stream = Stream.Jsonl then begin
        let snap = Metrics.snapshot () in
        List.iter
          (fun c -> Stream.write_json stream (Sink.counter_json c))
          snap.Metrics.counters;
        List.iter
          (fun h -> Stream.write_json stream (Sink.histogram_json h))
          snap.Metrics.histograms
      end;
      Stream.close stream

let summary () = Sink.text_of (Metrics.snapshot ())
