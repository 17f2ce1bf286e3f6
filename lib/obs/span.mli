(** Hierarchical timed spans, streamed over a live event bus.

    A span's close feeds two consumers:

    - the ["span.<name>"] histogram of {!Metrics}, so per-stage statistics
      are complete;
    - every {!subscribe}d live listener (the streaming trace sink, the
      verbose printer), which also sees an [Opened] event when the span
      begins.

    Nesting is tracked per domain ([Domain.DLS]) and carried on the event;
    events from worker domains go to the same bus, so nothing is lost when
    a domain is joined.  Nothing is retained in memory: a span no listener
    saw exists only in its histogram. *)

type event = {
  name : string;
  ts_us : float;  (** start, microseconds since the process epoch *)
  dur_us : float;  (** 0 on [Opened] bus events *)
  tid : int;  (** recording domain's id *)
  depth : int;  (** nesting depth within that domain *)
}

type phase = Opened | Closed

val with_ : name:string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  The event is recorded even when the thunk
    raises. *)

val timed : name:string -> (unit -> 'a) -> 'a * float
(** Like {!with_} but also returns the measured duration in seconds. *)

val subscribe : (phase -> event -> unit) -> int
(** Register a live sink called on every span open and close, from the
    recording domain.  Returns an id for {!unsubscribe}.  Listeners must be
    fast and must not raise. *)

val unsubscribe : int -> unit
