(** Export sinks for the recorded telemetry.

    Three formats: human-readable text, a JSONL event log (one JSON object
    per line: counters, histogram summaries and span events), and a Chrome
    [trace_event] JSON array that loads directly in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}.

    The pure [*_of_*] functions exist so serialisation can be tested
    without touching the global registries; the [write_*] functions
    snapshot the registries and write files. *)

val chrome_event : Span.event -> Json.t
(** One complete ([ph = "X"]) trace event with [name], [cat], [ph], [ts],
    [dur], [pid], [tid] fields; [ts]/[dur] in microseconds.  The streaming
    Chrome sink ({!Stream}) writes exactly these elements. *)

val chrome_trace_of_events : Span.event list -> Json.t
(** A JSON array of {!chrome_event}s. *)

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
(** One [{"type":"span",...}] line object, as the JSONL sinks emit it. *)

val span_of_json : Json.t -> Span.event option
(** Inverse of {!span_json}; [None] when required fields are missing.  A
    missing [key] (logs from before span keys existed) decodes as 0. *)

val jsonl_of : ?spans:Span.event list -> Metrics.snapshot -> string
(** One line per counter ([{"type":"counter","name",...,"value":...}]),
    histogram ([{"type":"histogram",...}], with count/sum/mean/min/max and
    p50/p90/p95/p99) and span event ([{"type":"span",...}]). *)

val text_of : ?spans:Span.event list -> Metrics.snapshot -> string
(** An aligned human-readable summary of the same data. *)

val write_chrome_trace : path:string -> unit -> unit
(** Serialise {!Span.events} to [path]. *)

val write_metrics_jsonl : path:string -> unit -> unit
(** Serialise the {!Metrics.snapshot} and {!Span.events} to [path]. *)

val write_file : path:string -> string -> unit
