(** Shared experimental ingredients: the two synthetic traces, their
    extracted marginals, epoch statistics and fitted models — plus the
    optional domain pool the figure runners sweep their grids on.

    Everything is generated deterministically from a seed and computed
    lazily, so the figures can share one context without recomputation;
    the lazies are forced under a mutex, making the accessors safe to
    call from pool workers.  [quick] mode shrinks the traces (and
    downstream grids) for tests and smoke runs; the full mode matches
    the paper's trace sizes.  The results of every figure are
    independent of [jobs] — the pool only changes which domain computes
    each grid cell, never the cell's value. *)

type t

val create :
  ?seed:int64 ->
  ?jobs:int ->
  ?superpose:Lrd_core.Superpose.method_ ->
  quick:bool ->
  unit ->
  t
(** Default seed 20260705.  [jobs] sets the total parallelism of the
    sweeps run from this context: omitted or [1] means sequential (no
    pool), [0] means auto-size to the machine
    ([Domain.recommended_domain_count]), and [j >= 2] runs grids on a
    pool of [j - 1] worker domains plus the calling domain.  Call
    {!teardown} when done with a context whose [jobs <> 1].
    [superpose] (default [Auto]) selects the aggregate-marginal
    construction the superposition experiments use
    ({!Lrd_core.Superpose.method_} — the CLI's [--superpose] lever).
    @raise Invalid_argument when [jobs] is negative. *)

val quick : t -> bool
val seed : t -> int64

val pool : t -> Lrd_parallel.Pool.t option
(** The context's domain pool, if any; figure runners pass this to
    {!Sweep.psurface} and friends. *)

val gap_policy : t -> Sweep.gap_policy
(** Always {!Sweep.Uniform}.  It stays only for the benchmark harness,
    which still passes it to {!Sweep.scheduled_surface}. *)

val superpose_method : t -> Lrd_core.Superpose.method_
(** The aggregate-marginal construction for superposition experiments
    ([Auto] unless overridden at {!create}). *)

val teardown : t -> unit
(** Shuts down the pool's worker domains (idempotent; no-op for
    sequential contexts).  The context remains usable for sequential
    work afterwards. *)

val mtv : t -> Lrd_trace.Trace.t
(** Synthetic MTV-like video trace (full: 107 892 frames at 1/30 s). *)

val bellcore : t -> Lrd_trace.Trace.t
(** Synthetic Bellcore-like Ethernet trace (full: 360 000 slots of 10 ms). *)

val mtv_marginal : t -> Lrd_dist.Marginal.t
(** 50-bin histogram marginal of the video trace (paper Fig. 3, left). *)

val bc_marginal : t -> Lrd_dist.Marginal.t
(** 50-bin histogram marginal of the Ethernet trace (Fig. 3, right). *)

val mtv_mean_epoch : t -> float
(** Measured mean rate-residence time of the video trace (paper: ~80 ms). *)

val bc_mean_epoch : t -> float
(** Same for the Ethernet trace (paper: ~15 ms). *)

val mtv_hurst : float
(** Nominal Hurst parameter of the video trace (paper: 0.83). *)

val bc_hurst : float
(** Nominal Hurst parameter of the Ethernet trace (paper: 0.9). *)

val mtv_utilization : float
(** Utilization the paper uses for MTV experiments (0.8). *)

val bc_utilization : float
(** Utilization for Bellcore experiments (0.4). *)

val mtv_theta : t -> float
(** Pareto scale matched to the measured MTV mean epoch at infinite
    cutoff (paper eq. 25 procedure). *)

val bc_theta : t -> float

val mtv_model : t -> cutoff:float -> Lrd_core.Model.t
(** The paper's fitted model for the video trace at the given cutoff
    lag: 50-bin marginal, alpha from the nominal H, theta from the
    measured epoch. *)

val bc_model : t -> cutoff:float -> Lrd_core.Model.t

val solver_params : t -> Lrd_core.Solver.params
(** Solver parameters used across experiments ([quick] lowers the
    refinement cap and iteration budget). *)

val manifest_fields : t -> (string * Lrd_obs.Json.t) list
(** The context's full parameter set for a run's provenance manifest:
    seed (as a decimal string — int64-exact), quick flag, jobs, the RNG
    split scheme, every solver parameter, and the shared sweep grids
    ({!Sweep.manifest_fields}).  Deterministic for a given context
    configuration. *)
