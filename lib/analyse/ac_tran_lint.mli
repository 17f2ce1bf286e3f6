(** Analysis-card preconditions: can the declared [.ac] / [.tran] / [.dc] sweep
    actually observe anything, given the circuit structure and the interval
    enclosure of its time constants?

    Codes (A = AC sweep, R = transient, S = DC sweep):

    - [A001] (error)   [.ac] with no AC-excited source — zero transfer
    - [A002] (error)   [.ac] output node unknown (warning when it is ground)
    - [A003] (error)   output node provably unreachable from every
                       AC-excited source through the signal-flow graph
    - [A004] (error)   malformed sweep ([per_decade <= 0] or not
                       [0 < f_lo < f_hi]) — {!Ac.default_freqs} would raise
    - [A005] (warning) sweep band provably disjoint from the interval hull
                       of the circuit's pole frequencies
    - [R001] (error)   degenerate [.tran] card (not [0 < dt < t_stop])
    - [R002] (warning) timestep provably exceeds the fastest time constant
    - [R003] (warning) no time-varying stimulus — the waveform is a decay to
                       the operating point
    - [R004] (error)   [.tran] output node unknown
    - [S001] (error)   [.dc] output node unknown

    "Provably" is backed by {!Interval}: reachability is a fixpoint over the
    signal-flow graph, and time constants are outward-rounded [C/G]
    enclosures per voltage-source-merged component (exact R/C values, MOS
    contributions bounded above by geometry and below by cutoff). *)

val check :
  ?file:string ->
  Yield_spice.Circuit.t ->
  Yield_spice.Netlist.analysis list ->
  Diagnostic.t list
(** Findings for every [.ac] / [.tran] / [.dc] card, in card order; [.op]
    cards produce nothing. *)

val probe_is_known : Yield_spice.Circuit.t -> string -> bool
(** The node name is ground or referenced by some device terminal.  The
    elaborator interns any name a card mentions, so an analysis probing an
    untouched node would solve to gmin noise: the A002/R004/S001 findings
    and [yieldlab netlist]'s refusal of such a card share this test. *)

val check_file : string -> Diagnostic.t list
(** Parse to the AST, elaborate and {!check} one netlist file; every
    finding carries the source span of the analysis card it is about.
    Unreadable or unparseable input yields [[]] —
    {!Netlist_lint.check_file} owns the [N000] diagnostic for that; run
    both, as [yieldlab lint netlist] does. *)
