type t = {
  every_s : float;
  emit : Json.t -> unit;
  lock : Mutex.t;
  mutable seq : int;
  mutable next_due : float;
  mutable last_counters : (string * int) list;
  mutable last_hist_counts : (string * int) list;
}

let create ~every_s ~emit =
  if not (Float.is_finite every_s && every_s > 0.) then
    invalid_arg "Metric_deltas.create: every_s must be finite and positive";
  {
    every_s;
    emit;
    lock = Mutex.create ();
    seq = 0;
    next_due = Clock.now_s () +. every_s;
    last_counters = [];
    last_hist_counts = [];
  }

(* the registry snapshot is sorted by name, so a single merge pass finds
   everything that moved since the last emission *)
let changed ~last now =
  let rec go last now acc =
    match (last, now) with
    | _, [] -> List.rev acc
    | [], (n, v) :: now' -> go [] now' ((n, v, v) :: acc)
    | (ln, _) :: last', ((n, _) :: _ as now') when ln < n -> go last' now' acc
    | ((ln, _) :: _ as last'), (n, v) :: now' when n < ln ->
        go last' now' ((n, v, v) :: acc)
    | (_, lv) :: last', (n, v) :: now' ->
        go last' now' (if v <> lv then (n, v, v - lv) :: acc else acc)
  in
  go last now []

let emit_now ?(reason = "interval") t =
  Mutex.lock t.lock;
  let snap = Metrics.snapshot () in
  let hist_counts =
    List.map
      (fun (n, (s : Histogram.summary)) -> (n, s.Histogram.count))
      snap.Metrics.histograms
  in
  let counter_deltas = changed ~last:t.last_counters snap.Metrics.counters in
  let hist_deltas = changed ~last:t.last_hist_counts hist_counts in
  let j =
    Json.Obj
      [
        ("type", Json.String "snapshot");
        ("seq", Json.Int t.seq);
        ("reason", Json.String reason);
        ("t_s", Json.Float (Clock.now_s ()));
        ( "counters",
          Json.Obj
            (List.map
               (fun (n, v, d) ->
                 (n, Json.Obj [ ("value", Json.Int v); ("delta", Json.Int d) ]))
               counter_deltas) );
        ( "histograms",
          Json.Obj
            (List.filter_map
               (fun (name, (s : Histogram.summary)) ->
                 match
                   List.find_opt (fun (n, _, _) -> n = name) hist_deltas
                 with
                 | None -> None
                 | Some (_, _, d) ->
                     Some
                       ( name,
                         Json.Obj
                           (("delta", Json.Int d) :: Sink.histogram_fields s) ))
               snap.Metrics.histograms) );
      ]
  in
  t.seq <- t.seq + 1;
  t.next_due <- Clock.now_s () +. t.every_s;
  t.last_counters <- snap.Metrics.counters;
  t.last_hist_counts <- hist_counts;
  Mutex.unlock t.lock;
  (* outside the lock: the emit target (a stream) takes its own lock *)
  t.emit j

let tick t = if Clock.now_s () >= t.next_due then emit_now t

let force t = emit_now ~reason:"final" t

let emitted t =
  Mutex.lock t.lock;
  let n = t.seq in
  Mutex.unlock t.lock;
  n
