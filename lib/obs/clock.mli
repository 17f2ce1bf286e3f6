(** Timestamps for the telemetry subsystem.

    Every obs timestamp flows through this single chokepoint.  {!now_s} and
    {!now_us} read [CLOCK_MONOTONIC] through the repo's one C stub
    ([clock_stubs.c]), so span durations and stream timestamps are immune
    to NTP steps and wall-clock adjustments — the failure mode the old
    [Unix.gettimeofday] wrapper documented.  The monotonic epoch is
    unspecified (typically boot time); only differences are meaningful, and
    {!Span} already rebases everything on the first use of the library. *)

val now_s : unit -> float
(** Monotonic seconds.  Arbitrary epoch; use differences only. *)

val now_us : unit -> float
(** Monotonic microseconds (the unit of Chrome trace [ts]). *)
