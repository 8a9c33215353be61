(** Metrics diff engine: align two snapshots by instrument name and
    report deltas, with a regression verdict.

    Three snapshot formats are auto-detected per file, so any pair can
    be compared:

    - an {!Obs.to_json} metrics snapshot
      ([{"metrics": [{"name", "kind", ...}]}]) — counters compare by
      [total], gauges by [value], histograms by [count] (and [sum] as
      ["<name>/sum"] when nonzero); trajectories are ordered diagnostics
      with no scalar meaning and are skipped;
    - a bench micro baseline ([[{"name", "ns_per_run", ...}]]) —
      kernels compare by [ns_per_run];
    - a {!Manifest} — its embedded [metrics] snapshot is compared, after
      checking the [schema] tags match.

    The regression rule, designed for "bigger is worse" series (timings,
    drop counts): current [> threshold ×] base {e and} the absolute
    increase [>= min_abs].  Decreases are improvements, never
    regressions.  A name present in the base only is a warning, not a
    failure — so an [--only]-filtered bench run can be diffed against
    the full committed baseline; a name present in the current only is
    new coverage and counts as an addition, not as missing. *)

type status =
  | Unchanged
  | Improved  (** Decreased by more than the thresholds allow. *)
  | Changed  (** Moved, but within the regression thresholds. *)
  | Regressed
  | Missing_current  (** In the base snapshot only (warning). *)
  | Missing_base  (** In the current snapshot only (warning). *)

type row = {
  name : string;
  base : float option;
  current : float option;
  status : status;
}

type report = {
  rows : row list;  (** Sorted by name. *)
  regressions : int;
  missing : int;
      (** Names in the base snapshot only — the warning bucket. *)
  additions : int;
      (** Names in the current snapshot only: new coverage, reported as
          an improvement in the summary, never as missing. *)
}

val scalars : Json.t -> ((string * float) list, string) result
(** Extract the comparable series from a snapshot in any of the three
    formats.  [Error] when the format is not recognized. *)

val compare_values :
  ?threshold:float ->
  ?min_abs:float ->
  ?filter:string ->
  ?exact:bool ->
  Json.t ->
  Json.t ->
  (report, string) result
(** [compare_values base current] with [threshold] defaulting to [2.0]
    (a >2x increase regresses) and [min_abs] to [0.] (any increase past
    the ratio counts).  [filter] keeps only series whose name contains
    the given substring — e.g. ["kernel/"] gates just the CPU
    micro-kernels, which are stable enough for a hard CI check while
    the solver cells stay warn-only.  [exact] (default [false]) switches
    to equivalence gating: any numeric difference on a series present in
    both snapshots — in either direction, of any size — is a regression.
    Used to assert that two snapshots of one run are the same (a
    manifest against the metrics snapshot it embeds); one-sided names
    keep their warning semantics. *)

val render : report -> string
(** A fixed-width text table (one row per changed/missing name, plus a
    summary line) — what [lrd metrics diff] prints. *)

val run :
  ?threshold:float ->
  ?min_abs:float ->
  ?filter:string ->
  ?exact:bool ->
  base:string ->
  current:string ->
  unit ->
  int
(** Read the two files, print {!render} to stdout (or the error to
    stderr) and return the process exit code: [0] clean, [3] at least
    one regression, [2] unreadable/unrecognized input.  Exit-2 messages
    name the offending file and the shape that was detected (manifest
    schema, bare object, array...).  [filter] and [exact] as in
    {!compare_values}. *)
