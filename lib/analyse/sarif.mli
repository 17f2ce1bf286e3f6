(** SARIF 2.1.0 rendering of lint findings, for CI upload and code-scanning
    ingestion.

    One run, one [tool.driver] named ["yieldlab"], one rule per distinct
    code present in the findings (with a short description from the built-in
    catalogue).  Every result carries a
    [partialFingerprints."yieldlab/v1"] entry equal to
    {!Suppression.fingerprint}, so SARIF consumers and the baseline file agree
    on identity; findings passed as [suppressed] are emitted with
    [suppressions: [{"kind": "external"}]] as SARIF prescribes for
    baseline-suppressed results. *)

val rule_descriptions : (string * string) list
(** The rule registry: one [(code, one-line description)] pair per stable
    code, in catalogue order.  This is the single source the SARIF [rules]
    array and the generated README code table are built from
    ([yieldlab lint codes]). *)

val render :
  ?tool_version:string ->
  ?suppressed:Diagnostic.t list ->
  Diagnostic.t list ->
  Yield_obs.Json.t
(** Severities map to SARIF levels [error]/[warning]/[note].  Findings with
    {!Diagnostic.related} spans carry SARIF [relatedLocations] (secondary
    spans default to the finding's own file). *)

val save :
  ?tool_version:string ->
  ?suppressed:Diagnostic.t list ->
  path:string ->
  Diagnostic.t list ->
  unit
