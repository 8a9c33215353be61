(** Parameter grids and sweep helpers shared by the figure runners.

    The grid evaluators ([psurface], [map], [scheduled_surface])
    optionally run on a {!Lrd_parallel.Pool}; [?pool:None] (the
    default) evaluates sequentially in row-major order.  Cell functions
    must follow the pool's determinism contract — no shared mutable
    state except domain-safe caches, randomness derived from the cell
    index via {!Lrd_rng.Rng.split_indexed} — so that pooled evaluation
    is bit-identical to sequential evaluation. *)

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

type gap_policy = Uniform
(** The one sweep policy: every cell converges to the solver's own gap
    target.  It stays only for the benchmark harness, which still
    passes [~policy] to {!scheduled_surface}. *)

val scheduled_surface :
  ?pool:Lrd_parallel.Pool.t ->
  ?policy:gap_policy ->
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
    domain-safe, like any cell function — seeds it from its finished
    left neighbour when the occupancy grids (nearly) coincide
    ({!Lrd_core.Solver.State.seed_from}), skipping the refinement
    ladder, and runs it to the end.  All six loss surfaces keep the
    buffer (nearly) constant along a row — mean-preserving marginal
    transforms leave the service rate fixed up to zero-clamping — so
    the coincidence holds by construction there; the check falls back
    to a cold start otherwise.  Rows start last row first (the
    deepest-buffer and highest-H rows are the longest chains); a row
    holds only the cell in progress and the neighbour that seeds it, a
    finished cell only its result.  [policy] is ignored; it stays only
    for the benchmark harness's call.

    Deterministic for every pool size: a row's work depends only on its
    own cells.  Counters: [sweep/cells], [sweep/warm_starts],
    [sweep/iterations_saved] (conservative: source-minus-own iterations
    per warm-started cell); one [sweep/slice] span per cell that is not
    finished at creation and a [sweep/warm_start] instant per seeded
    cell show the work of each cell on a Perfetto timeline, inside one
    [sweep/scheduled] span. *)

val manifest_fields : quick:bool -> unit -> (string * Lrd_obs.Json.t) list
(** The shared parameter grids above, for a run's provenance manifest:
    [buffers_seconds], [cutoffs_seconds] (infinity as the string
    ["inf"]), [hursts], [scalings], [stream_counts]. *)

val shuffle_blocks_of_cutoffs :
  Lrd_trace.Trace.t -> float array -> (float * int option) array
(** Maps each cutoff lag to the shuffle block size [T_c / slot]
    (infinity maps to [None], i.e. the unshuffled trace); cutoffs below
    one slot are clamped to a single-sample block. *)
