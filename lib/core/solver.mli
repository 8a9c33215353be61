(** Bounded numerical solver for the stationary loss rate of the finite
    buffer fluid queue (paper Section II, Proposition II.1).

    The queue occupancy at arrival epochs obeys
    [Q(n+1) = max(0, min(B, Q(n) + W(n)))] with i.i.d. increments.  Two
    discretized chains are iterated on a grid of [m] bins of width
    [d = B/m]: the floor chain starts empty and rounds down, the ceiling
    chain starts full and rounds up.  Their loss rates are monotone
    bounds on the true loss rate — the floor chain's increasing in both
    the iteration count and the grid resolution, the ceiling chain's
    decreasing — so the pair brackets the answer at every step.

    Each iteration is one convolution of the occupancy pmf with the
    discretized increment pmf (eq. 19) followed by folding the
    spill-over mass into the boundary states (eq. 20); the convolution
    is computed wrapped on a cached-kernel circular FFT plan of
    [next_power_of_two (2 m)] points, O(m log m) per step (see
    {!Workspace}).  That plan is the solver's only convolution engine.

    The stopping protocol follows the paper: stop when the bounds come
    within [tolerance] (default 20%) of their midpoint, report zero when
    the upper bound falls below [negligible_loss] (default 1e-10), and
    when convergence stalls double the number of bins and continue from
    the current occupancy vectors (footnote 3's warm restart — old grid
    points are a subset of the new, so the bound property is kept). *)

type params = {
  initial_bins : int;  (** Starting grid resolution [m] (default 128). *)
  max_bins : int;  (** Refinement cap (default 16384). *)
  tolerance : float;
      (** Relative bound-gap target: stop when
          [upper - lower <= tolerance * (upper + lower) / 2].
          Default 0.2 as in the paper. *)
  negligible_loss : float;
      (** Report zero loss when the upper bound drops below this
          (default 1e-10, the paper's threshold). *)
  max_iterations : int;
      (** Total iteration budget (default 200000).  The bounds are
          checked every 16 chain steps and at the budget. *)
  stall_factor : float;
      (** Refine the grid when a check period moves {e both} bounds by
          less than this relative fraction (default 0.02) — i.e. both
          chains have plateaued at the current resolution, so only a
          finer grid can close the remaining gap.  While either chain is
          still mixing (e.g. the ceiling chain draining a deep buffer),
          iteration continues at the cheap coarse resolution. *)
  warm_restart : bool;
      (** Keep the current occupancy vectors across grid refinements
          (footnote 3; default true).  [false] restarts the chains from
          empty/full on every refinement — the ablation baseline. *)
}

val default_params : params

type result = {
  loss : float;  (** Midpoint of the final bounds; 0 if negligible. *)
  lower_bound : float;
  upper_bound : float;
  iterations : int;  (** Total chain iterations performed. *)
  bins : int;  (** Final grid resolution. *)
  refinements : int;  (** Number of grid doublings. *)
  converged : bool;
      (** True when the tolerance or negligible-loss criterion was met;
          false when the solve stopped at the iteration budget or at the
          grid cap first. *)
}

val pp_result : Format.formatter -> result -> unit

module Workspace : sig
  type t
  (** A mutable per-resolution-level workspace: the occupancy pmfs of
      both chains as unboxed Bigarray vectors, one circular
      real-transform plan per chain
      ({!Lrd_numerics.Convolution.make_real_plan}, of
      [n = next_power_of_two (2 m)] points: [2 m] on the solver's
      doubling ladder from a power of two), the convolution output
      buffers, and the expected-overflow table (built in one batch by
      {!Workload.overflow_table}).  The plan computes the Lindley
      convolution WRAPPED modulo [n], and one boundary fold (eqs. 19-20)
      maps it back onto the grid: the wrap lands only on states the fold
      collapses into the empty state, and the full-state mass comes
      exactly from a precomputed kernel-tail correlation.  Everything is
      allocated once when the level is built; {!step} then advances both
      chains with {e zero heap allocation}, so iterating a level is
      FLOP-bound rather than GC-bound. *)

  val make : Workload.t -> buffer:float -> m:int -> t
  (** Builds the workspace for an [m]-bin grid with the chains at their
      initial states (floor chain empty, ceiling chain full). *)

  val step : t -> unit
  (** One Lindley step (eqs. 19-20) for BOTH chains: a real-input FFT
      convolution per chain (each one half-size complex transform in,
      one out) followed by the boundary fold.  Performs no heap
      allocation. *)

  val lower_pmf : t -> float array
  (** Copy of the floor-chain occupancy pmf (length [m + 1]). *)

  val upper_pmf : t -> float array
  (** Copy of the ceiling-chain occupancy pmf. *)
end
(** The solver's engine, exposed for benchmarks and for tests that pin
    the zero-allocation steady-state invariant with [Gc.minor_words]. *)

type occupancy = {
  step : float;  (** Grid spacing [d]; state [j] is occupancy [j * step]. *)
  lower_pmf : float array;
      (** Floor-chain occupancy pmf: a stochastic {e lower} bound on the
          stationary occupancy at arrival epochs. *)
  upper_pmf : float array;
      (** Ceiling-chain occupancy pmf: a stochastic {e upper} bound. *)
}
(** Bounds on the stationary queue-occupancy distribution {e at arrival
    epochs} (the paper solves the chain embedded at the points of the
    modulating renewal process; this is not the time-stationary
    occupancy, but it is exactly what the loss functional needs and a
    natural state descriptor).  Both arrays have length
    [bins + 1] and sum to 1. *)

val mean_occupancy : occupancy -> float * float
(** Bounds [(lower, upper)] on the mean occupancy (work units). *)

val occupancy_ccdf : occupancy -> threshold:float -> float * float
(** Bounds on [Pr{Q >= threshold}] — the overflow-probability analogue
    of the paper's footnote 2. *)

val occupancy_quantile : occupancy -> p:float -> float * float
(** Bounds on the [p]-quantile of the occupancy, [p] in (0, 1]. *)

val mean_virtual_delay : occupancy -> service_rate:float -> float * float
(** Bounds on the virtual waiting time [Q / c] at epoch starts, in
    seconds: what a fluid atom arriving at an epoch boundary waits. *)

module State : sig
  type t
  (** One solve, held in a record so that a sweep can create it through
      a callback and run it later.  {!run} is the loop of {!solve}: step
      both chains 16 times, check the bounds, refine the grid when both
      have plateaued, until a check finishes the solve.  {!solve} is
      {!create} + {!run}, so a state reproduces it by construction.

      A state is single-threaded: create and run it on one domain,
      whose trace track then holds its balanced [solver/solve] slice
      and, inside it, one [solver/level] slice per resolution level.
      Each check period goes to {!Lrd_parallel.Pool.both}: the floor
      chain steps on the running domain and the ceiling chain on
      another: a crew member outside a pool task, a participant that
      has run out of tasks inside one.  With no such domain free (or
      on a one-core machine) the chains step in turn.  Either way every
      chain does the same float operations in the same order, so no
      computed bit depends on where the chains ran. *)

  val create :
    ?params:params ->
    ?cache:Workload.Cache.t * string ->
    Model.t ->
    service_rate:float ->
    buffer:float ->
    t
  (** A fresh state (floor chain empty, ceiling chain full; the first
      level is built by {!run}).  The state
      quantizes through its own grid memo
      ({!Workload.with_memo}), also when its workload comes from
      [cache].
      Trivial cells — zero buffer, or a workload that can never exceed
      the service rate — are born finished with their closed-form
      result.  The solve is timed ([solver/solve_seconds], and its
      allocation in [solver/solve_minor_words]) from here to the check
      that finishes it.  [cache] as in {!solve}.
      @raise Invalid_argument on nonpositive service rate or a negative,
      nan or infinite buffer (same messages as {!solve}). *)

  val create_utilization :
    ?params:params ->
    ?cache:Workload.Cache.t * string ->
    Model.t ->
    utilization:float ->
    buffer_seconds:float ->
    t
  (** {!create} with the {!solve_utilization} conventions:
      [c = mean_rate / utilization], [buffer = buffer_seconds * c]. *)

  val run : t -> unit
  (** Run the solve until a check finishes it.  No-op on a finished
      state. *)

  val result : t -> result
  (** The result so far; meaningful once {!run} has returned (before
      the first check the bounds are [nan]). *)

  val detailed : t -> result * occupancy
  (** {!result} plus the current occupancy bounds, as
      {!solve_detailed}. *)
end
(** The loop of {!solve}, exposed for
    {!Lrd_experiments.Sweep.scheduled_surface}, whose cells are states
    made by the caller's callback and run cold on the sweep's pool. *)

val solve :
  ?params:params ->
  ?cache:Workload.Cache.t * string ->
  Model.t ->
  service_rate:float ->
  buffer:float ->
  result
(** Loss rate of the queue with the given service rate and buffer fed by
    the model.  [buffer = 0] returns the closed form
    {!Workload.zero_buffer_loss} directly.

    On a machine with two or more cores the solve steps its floor and
    ceiling chains on two domains at once when a second one is free
    (outside a {!Lrd_parallel.Pool} task a process-wide crew member,
    inside one a participant that has run out of tasks, see
    {!Lrd_parallel.Pool.both}), and in turn otherwise.  The result is
    bit-identical either way.

    [cache] is a {!Workload.Cache} plus a key identifying [model] within
    it: cells of a sweep that pass the same key share one workload
    instead of re-deriving it per cell.  The key must be injective over
    the models the sweep solves.  Either way the solve memoizes its own
    survival grids, which refinement levels reuse.  Caching never
    changes any computed value.
    @raise Invalid_argument on nonpositive service rate or a negative,
    nan or infinite buffer. *)

val solve_detailed :
  ?params:params ->
  ?cache:Workload.Cache.t * string ->
  Model.t ->
  service_rate:float ->
  buffer:float ->
  result * occupancy
(** Like {!solve}, additionally returning the final occupancy bounds.
    With [buffer = 0] the occupancy is the degenerate point mass at 0
    on a single-state grid. *)

val solve_utilization :
  ?params:params ->
  ?cache:Workload.Cache.t * string ->
  Model.t ->
  utilization:float ->
  buffer_seconds:float ->
  result
(** Convenience wrapper used by all experiments: the service rate is
    [mean_rate / utilization] and the buffer is [buffer_seconds * c]
    (the paper's "normalized buffer size" in seconds). *)

type snapshot = {
  iteration : int;
  lower_pmf : float array;  (** Floor-chain occupancy pmf (length m+1). *)
  upper_pmf : float array;  (** Ceiling-chain occupancy pmf. *)
  lower_loss : float;
  upper_loss : float;
}

val iterate_snapshots :
  Model.t ->
  service_rate:float ->
  buffer:float ->
  bins:int ->
  at:int list ->
  snapshot list
(** Runs both chains at a fixed resolution and captures the occupancy
    pmfs and loss bounds at the requested iteration counts (Fig. 2 shows
    these for n = 5, 10, 30 at m = 100).  The list must be sorted
    ascending.  @raise Invalid_argument otherwise. *)
