(** Periodic metrics-registry deltas for the streaming sinks.

    A snapshot emitter is armed with an interval and an emit target
    (normally {!Stream.write_json}); {!tick} is cheap and is called
    opportunistically from span-close listeners, so snapshots ride the
    event stream without a dedicated timer thread.  Each emission is one
    [{"type":"snapshot",...}] line carrying only the counters and
    histograms that changed since the previous snapshot — current value
    plus delta — so a consumer can follow progress (simulations run, GA
    generations, cache hits) from the stream alone, even if the process
    later dies before it writes its final metric lines. *)

type t

val create : every_s:float -> emit:(Json.t -> unit) -> t
(** Arm an emitter; the first snapshot is due [every_s] seconds from now.
    @raise Invalid_argument unless [every_s] is finite and positive. *)

val tick : t -> unit
(** Emit a snapshot when the interval has elapsed, otherwise return
    immediately (one monotonic-clock read). *)

val force : t -> unit
(** Emit unconditionally, with [reason = "final"]; used on stream
    shutdown so the last deltas are never lost. *)

val emitted : t -> int
(** Snapshots emitted so far. *)
