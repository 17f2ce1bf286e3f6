(** Streaming telemetry sinks: events are appended to disk as they happen,
    so a long run's telemetry memory stays O(1) while the full event log
    lives in the file.

    Two formats:
    - [Jsonl] — one JSON object per line, the same line shapes as
      {!Sink.jsonl_of} plus [{"type":"span",...}] lines ({!Sink.span_json}),
      ["span.open"] lines (when the caller forwards [Opened] phases) and
      ["snapshot"] lines from {!Metric_deltas}.
    - [Chrome] — an incrementally grown [trace_event] array.  The opening
      [\[] is written eagerly and the closing bracket only on {!close};
      Chrome and Perfetto load the unterminated array a crash leaves
      behind.

    Write discipline: one event is one buffered write followed by a flush,
    so a kill loses at most a partial final line.  {!read_jsonl} tolerates
    exactly that — an unterminated, unparseable tail is dropped and
    reported, while a corrupt line in the middle of the file still raises
    (that is damage, not crash debris).

    A write error never escapes into the caller (span listeners must not
    raise): the first [Sys_error] closes the stream, later writes are
    no-ops, and {!close} reports the error. *)

type format = Jsonl | Chrome

type t

val create : ?format:format -> path:string -> unit -> t
(** Truncate-and-open [path] for streaming.  [format] defaults by suffix:
    [.jsonl] streams JSONL, any other [.json] a Chrome trace, everything
    else JSONL.  @raise Sys_error when the path cannot be opened. *)

val format : t -> format

val write_json : t -> Json.t -> unit
(** Append one line (JSONL) or one array element (Chrome).  Thread-safe;
    a no-op after {!close} or a write error. *)

val write_event : t -> Span.phase -> Span.event -> unit
(** Append a span event in the stream's format.  Chrome streams ignore
    [Opened] phases (complete events carry the duration at close). *)

val close : t -> (unit, string) result
(** Flush, terminate the Chrome array, and close the fd.  Idempotent.
    [Error] carries the first write error, if any write failed. *)

type reread = {
  lines : Json.t list;
  truncated : bool;  (** a partial final line was dropped *)
}

val read_jsonl : path:string -> reread
(** Parse a streamed JSONL file back, dropping an unterminated final line.
    @raise Json.Parse_error on a malformed {e complete} line.
    @raise Sys_error when the file cannot be read. *)

val spans_of_lines : Json.t list -> Span.event list
(** The [{"type":"span"}] lines of a re-read stream, decoded (in file
    order, i.e. span-close order). *)
