(** Parameter grids and sweep helpers shared by the figure runners.

    The grid evaluators ([surface], [psurface], [map]) optionally run on
    a {!Lrd_parallel.Pool}; [?pool:None] (the default) evaluates
    sequentially in row-major order.  Cell functions must follow the
    pool's determinism contract — no shared mutable state except
    domain-safe caches, randomness derived from the cell index via
    {!Lrd_rng.Rng.split_indexed} — so that pooled evaluation is
    bit-identical to sequential evaluation. *)

val buffers : quick:bool -> ?max_seconds:float -> unit -> float array
(** Normalized buffer sizes in seconds, log-spaced from 10 ms up to
    [max_seconds] (default 2 s) — the "up to a few seconds" range the
    paper motivates with contemporary switch buffers.  7 points (4 in
    quick mode).
    @raise Invalid_argument unless [max_seconds > 0.01] (the logspace
    lower bound; anything at or below it would silently produce a
    degenerate, non-increasing grid). *)

val cutoffs : quick:bool -> unit -> float array
(** Cutoff lags in seconds, log-spaced from 100 ms to 100 s plus
    infinity.  8 points (5 in quick mode). *)

val hursts : quick:bool -> unit -> float array
(** Hurst parameters spanning the paper's (0.55, 0.95) range. *)

val scalings : quick:bool -> unit -> float array
(** Marginal scaling factors spanning the paper's (0.5, 1.5) range. *)

val stream_counts : quick:bool -> unit -> int array
(** Numbers of superposed streams, 1 .. 10. *)

val map :
  ?pool:Lrd_parallel.Pool.t -> ('a -> 'b) -> 'a array -> 'b array
(** [Array.map], optionally spread across the pool; results are in index
    order either way. *)

val psurface :
  ?pool:Lrd_parallel.Pool.t ->
  xs:'a array ->
  ys:'b array ->
  f:('a -> 'b -> 'c) ->
  unit ->
  'c array array
(** [cells.(row).(col) = f xs.(col) ys.(row)], for axes of any type
    (buffers, shuffled traces, interarrival laws, ...). *)

val cell_key : float -> string
(** Hex-exact cache key for a float grid coordinate
    ([Printf.sprintf "%h"]): injective over distinct coordinates,
    including infinity, which is what {!Lrd_core.Workload.Cache}
    requires. *)

type contrast =
  | Decades of float
      (** A fixed contrast window: stop refining a cell once its
          certified upper bound sits this many decades below the
          largest certified lower bound anywhere on the surface. *)
  | From_axis
      (** Derive the window from the figure's own loss axis: the
          certified lower bounds of finished cells span the plotted
          range, and the cut falls one decade below the smallest
          plotted value — anything smaller is off the bottom of the
          axis.  Floored at the fixed default of 2 decades; no cut is
          applied until at least one cell has finished with a positive
          bound.  The derivation reads only settled solver states, so
          scheduling stays deterministic. *)

type gap_policy = {
  contrast : contrast option;
      (** Stop refining cells whose exact value can no longer change
          the plotted contrast.  [None] (the default) converges every
          cell to the solver's own gap target. *)
  iteration_budget : int option;
      (** Cap on the total chain iterations the whole surface may
          spend, checked between epochs (so it can be overshot by at
          most one epoch); when it runs out every remaining cell is
          stopped with certified (possibly loose) bounds.  [None]: no
          cap; [Some n] needs [n >= 1]. *)
}
(** Per-figure error-budget policy for {!scheduled_surface}.  Both
    levers compose; both leave every reported bound certified
    (lower <= true loss <= upper) — they only decide how {e narrow} the
    intervals get. *)

val uniform_policy : gap_policy
(** No contrast rule, no budget: every cell converges to the solver's
    uniform 20% gap target — the classic sweep semantics. *)

val scheduled_surface :
  ?pool:Lrd_parallel.Pool.t ->
  ?policy:gap_policy ->
  ?slice:int ->
  xs:'a array ->
  ys:'b array ->
  state:('a -> 'b -> Lrd_core.Solver.State.t) ->
  unit ->
  Lrd_core.Solver.result array array
(** Row-chain grid evaluation over resumable solver states:
    [cells.(row).(col)] is the result of [state xs.(col) ys.(row)],
    like {!psurface}.  Each row is a warm-start chain run left to right
    inside one pool task (when a pool is given): the task creates each
    cell through [state] — so [state] runs on pool domains and must be
    domain-safe, like any cell function — and, when the occupancy grids
    (nearly) coincide, seeds it from its finished left neighbour
    ({!Lrd_core.Solver.State.seed_from}), skipping the refinement
    ladder.  All six loss surfaces keep the buffer (nearly) constant
    along a row — mean-preserving marginal transforms leave the service
    rate fixed up to zero-clamping — so the coincidence holds by
    construction there; the check falls back to a cold start
    otherwise.  Rows start last row first (the deepest-buffer and
    highest-H rows are the longest chains); a row holds only the cell in
    progress and the neighbour that seeds it, a finished cell only its
    result.

    Under {!uniform_policy} every row runs to the end in one pass.  The
    contrast and budget policies run the rows in epochs of [slice]
    chain iterations each (default 512) and apply the policy between
    epochs, on the calling domain, reading only certified bounds
    ({!Lrd_core.Solver.State.certified}).

    Deterministic for every pool size: a row's work in an epoch depends
    only on its own states, and the policies read them between epochs
    (the usual sweep contract).  Counters: [sweep/warm_starts],
    [sweep/iterations_saved] (conservative: source-minus-own iterations
    per warm-started cell), [sweep/cells_early_stopped],
    [sweep/schedule_rounds] (epochs; 1 under the uniform policy);
    per-slice gaps land in the [sweep/gap_rel] trajectory, and
    [sweep/slice] / [sweep/warm_start] / [sweep/early_stop] trace
    events show the work of each cell on a Perfetto timeline.

    @raise Invalid_argument when [slice <= 0] or the policy's
    [iteration_budget] is [Some n] with [n <= 0]. *)

val manifest_fields : quick:bool -> unit -> (string * Lrd_obs.Json.t) list
(** The shared parameter grids above, for a run's provenance manifest:
    [buffers_seconds], [cutoffs_seconds] (infinity as the string
    ["inf"]), [hursts], [scalings], [stream_counts]. *)

val shuffle_blocks_of_cutoffs :
  Lrd_trace.Trace.t -> float array -> (float * int option) array
(** Maps each cutoff lag to the shuffle block size [T_c / slot]
    (infinity maps to [None], i.e. the unshuffled trace); cutoffs below
    one slot are clamped to a single-sample block. *)
