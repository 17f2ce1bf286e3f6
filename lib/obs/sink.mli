(** Serialisation of the recorded telemetry.

    The metric registry goes out as human-readable text or as a JSONL log
    (one JSON object per line: counters and histogram summaries).  Span
    events have two line shapes, a JSONL [{"type":"span",...}] object and a
    Chrome [trace_event] element that loads directly in [chrome://tracing]
    or {{:https://ui.perfetto.dev}Perfetto}; {!Stream} writes them as the
    spans close.

    The pure [*_of_*] functions exist so serialisation can be tested
    without touching the global registry; {!write_metrics_jsonl} snapshots
    it and writes a file. *)

val chrome_event : Span.event -> Json.t
(** One complete ([ph = "X"]) trace event with [name], [cat], [ph], [ts],
    [dur], [pid], [tid] fields; [ts]/[dur] in microseconds.  The streaming
    Chrome sink ({!Stream}) writes exactly these elements. *)

val histogram_fields : Histogram.summary -> (string * Json.t) list
(** The canonical JSON field list of a histogram summary
    (count/sum/mean/min/max/p50/p90/p95/p99) — the single definition every
    sink and the bench harness share.  Non-finite values (the nan
    min/max/quantiles of an empty histogram) serialise as [null]. *)

val counter_json : string * int -> Json.t
(** One [{"type":"counter",...}] line object. *)

val histogram_json : string * Histogram.summary -> Json.t
(** One [{"type":"histogram",...}] line object (fields from
    {!histogram_fields}). *)

val span_json : Span.event -> Json.t
(** One [{"type":"span",...}] line object, as the JSONL stream emits it. *)

val span_of_json : Json.t -> Span.event option
(** Inverse of {!span_json}; [None] when required fields are missing.
    Unknown fields (the [key] of logs from before span keys were removed)
    are ignored. *)

val jsonl_of : Metrics.snapshot -> string
(** One line per counter ([{"type":"counter","name",...,"value":...}]) and
    histogram ([{"type":"histogram",...}], with count/sum/mean/min/max and
    p50/p90/p95/p99). *)

val text_of : Metrics.snapshot -> string
(** An aligned human-readable summary of the same data. *)

val write_metrics_jsonl : path:string -> unit -> unit
(** Serialise the {!Metrics.snapshot} to [path] (temp file, then rename). *)

val write_file : path:string -> string -> unit
