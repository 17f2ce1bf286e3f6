(** The perf-regression gate: diff a fresh [BENCH_flow.json] against a
    checked-in baseline.

    What is compared, and how:
    - [scale] and [jobs] — exact; a mismatch means the two runs are not
      comparable at all.
    - [stage_s.*] — wall-clock with tolerance: a stage regresses when
      [actual > base * (1 + frac) + abs_s].  The [frac]/[abs_s] pair lives
      {e in the baseline file} ([tolerance] object), so the checked-in
      baseline can carry a generous absolute slack (different CI machines)
      while a same-machine fixture can pin [abs_s = 0].
    - [sim_counts.*] and [counters.*] — exact values, and exact {e key
      identity} in both directions: a simulation-count drift or a counter
      appearing/vanishing fails the gate, since those are determinism
      regressions no timing tolerance should forgive.

    Histograms are deliberately not compared (their quantiles are timing
    distributions — pure noise across machines). *)

type tolerance = { frac : float; abs_s : float }

type finding = { field : string; detail : string }

val to_string : finding -> string

val check : baseline:Yield_obs.Json.t -> bench:Yield_obs.Json.t -> finding list
(** Empty when the bench run is within tolerance of the baseline; one
    finding per violated field otherwise.  A baseline without a
    [tolerance] object gets [frac = 0.10], [abs_s = 0.]. *)

val baseline_of_bench :
  ?tolerance:tolerance -> Yield_obs.Json.t -> Yield_obs.Json.t
(** Distil a [BENCH_flow.json] document into a baseline: scale, jobs, the
    tolerance block, stage timings, sim counts and counters (histograms
    and the jobs sweep are dropped).  [tolerance] defaults to
    [frac = 0.10], [abs_s = 2.0]: slack enough to absorb
    machine-to-machine constant factors while still catching the
    counts/identity drift exactly. *)
