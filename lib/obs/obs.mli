(** Facade over the telemetry subsystem: the pieces an entry point needs.

    Recording (spans, counters, histograms) is always on — it is cheap
    enough that the fast-scale flow pays well under 2 % — and no span is
    held in memory.  Nothing is written anywhere unless the trace stream
    is armed ({!start_stream}) or the caller writes the metric registry
    ({!Sink.write_metrics_jsonl}). *)

val set_verbose : bool -> unit
(** When on, every span prints a line to stderr as it closes (an indented
    live trace). *)

val start_stream : ?snapshot_every_s:float -> path:string -> unit -> unit
(** Arm the trace stream: every span event is appended to [path] as it
    happens ([.jsonl] → JSONL, other [.json] → Chrome trace; see
    {!Stream}).  With [snapshot_every_s], periodic metrics-delta
    snapshots ride the same stream.  A no-op when a stream is already
    active.
    @raise Sys_error when the path cannot be opened.
    @raise Invalid_argument when [snapshot_every_s] is not finite and
    positive. *)

val stream_active : unit -> bool

val stop_stream : unit -> (unit, string) result
(** Final snapshot, final counter/histogram lines (JSONL format only),
    close the file.  [Error] carries the write error that cut the stream
    short; it is reported by this call only.  [Ok ()] when no stream is
    active. *)

val summary : unit -> string
(** Human-readable dump of the current metric snapshot. *)
