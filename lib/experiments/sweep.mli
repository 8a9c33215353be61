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
    (buffers, shuffled traces, interarrival laws, ...).  Each cell adds
    one to the [sweep/cells] counter and, when tracing, records one
    [sweep/cell] span whose arg is its row-major index
    [row * Array.length xs + col]. *)

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
(** {!psurface} over solver states: [cells.(row).(col)] is the result
    of running [state xs.(col) ys.(row)] to the end.  Each cell is one
    cold solve (floor chain empty, ceiling chain full, so its bounds
    are Proposition II.1's certified ones) on its own pool task, so
    [state] runs on pool domains and must be domain-safe, like any cell
    function.  Deterministic for every pool size.  [policy] is ignored;
    it stays only for the benchmark harness's call.  Counters and trace
    spans as {!psurface}: [sweep/cells], one [sweep/cell] span per
    cell. *)

val manifest_fields : quick:bool -> unit -> (string * Lrd_obs.Json.t) list
(** The shared parameter grids above, for a run's provenance manifest:
    [buffers_seconds], [cutoffs_seconds] (infinity as the string
    ["inf"]), [hursts], [scalings], [stream_counts]. *)

val shuffle_blocks_of_cutoffs :
  Lrd_trace.Trace.t -> float array -> (float * int option) array
(** Maps each cutoff lag to the shuffle block size [T_c / slot]
    (infinity maps to [None], i.e. the unshuffled trace); cutoffs below
    one slot are clamped to a single-sample block. *)
