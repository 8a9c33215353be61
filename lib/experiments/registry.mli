(** The experiment registry: every paper figure plus the ablations, each
    runnable by id.  This is the single source the bench harness and the
    CLI iterate over. *)

type entry = {
  id : string;  (** Stable identifier, e.g. "fig4" or "abl-shuffle". *)
  title : string;
  run : Data.t -> Format.formatter -> unit;
}

val figures : entry list
(** The paper's figures, in order (fig2 .. fig14). *)

val ablations : entry list
(** The design-choice ablations promised in DESIGN.md. *)

val extensions : entry list
(** Experiments beyond the paper: tail asymptotics, estimator
    comparison, inverse provisioning, occupancy bounds, and the
    correlation-horizon estimate comparison. *)

val all : entry list
(** [figures @ ablations @ extensions]. *)

val find : string -> entry option

val run :
  ?only:string list ->
  ?manifest:string ->
  Data.t ->
  Format.formatter ->
  unit
(** Runs the selected entries (all by default) in registry order,
    printing each, and after each a [[<id> completed in <s> s]] line
    with the entry's wall seconds on stderr — so the tables on the
    formatter do not depend on timing.  Unknown ids in [only] raise
    [Invalid_argument].

    [?manifest] writes a run provenance manifest ({!Lrd_obs.Manifest})
    to the given path after the run: the selected figure ids, the
    context's full parameter set ({!Data.manifest_fields}), wall time,
    and — when telemetry is enabled — the final metrics snapshot.  It
    retires the parked crew members ({!Data.teardown}, or
    {!Lrd_parallel.Pool.shutdown} without a pool) and stops a running
    {!Lrd_obs.Export} ticker, whose last tick samples the [gc/] gauges,
    before taking that snapshot, so the snapshot includes every
    member's last idle span and equals one the caller takes afterwards;
    the context must not run pooled work again. *)
