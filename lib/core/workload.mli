(** The per-epoch work increment [W = T (lambda - c)] and its exact
    discretizations (paper eqs. 10, 21, 22).

    [W] is the difference between arriving and departing work over one
    interarrival interval.  The solver's floor chain needs the bin masses
    [Pr{W in [i d, (i+1) d)}] (eq. 21) and the ceiling chain
    [Pr{W in ((i-1) d, i d]}] (eq. 22); since [W] mixes atoms (from the
    truncated interarrival law) with continuous parts, both the strict and
    weak survival functions of [W] are computed from the interarrival
    law's, so every atom lands on the provably-safe side of each bin
    boundary and the bound property of Proposition II.1 carries over to
    floating point. *)

type t
(** The increment distribution for a given model, service rate and buffer
    discretization. *)

val create : ?memoize:bool -> Model.t -> service_rate:float -> t
(** [memoize] (default false) is [with_memo] applied to the result.
    @raise Invalid_argument unless the service rate is positive. *)

val with_memo : t -> t
(** The same workload with a fresh grid-level cache attached to
    [discretize] and [overflow_table]: the finest survival grids and
    overflow table computed for the current buffer.  Because a
    refinement level at [2 m] bins evaluates a superset of its [m]-bin
    parent's points (the grid step halves exactly in floating point), a
    memoizing workload quantizes only the new points of each doubling
    and answers a coarser level by striding.  The scalar functions
    ([survival_ge], [survival_gt], [expected_overflow]) are never
    cached.  Memoization never changes any computed value — only
    whether it is recomputed.  The cache is not locked: use a memoizing
    workload from one domain at a time, as a solver state does (each
    [Solver.State] attaches its own). *)

val survival_ge : t -> float -> float
(** [Pr{W >= x}]; bitwise equal to the corresponding grid value behind
    [discretize] (the same kernel on one point). *)

val survival_gt : t -> float -> float
(** [Pr{W > x}], likewise. *)

val max_increment : t -> float
(** Supremum of [W]'s support ([T_c * (lambda_max - c)] for a truncated
    law); [infinity] for an unbounded law with rates above [c]; [<= 0]
    when no rate exceeds the service rate (a queue that never grows). *)

val expected_overflow : t -> buffer:float -> occupancy:float -> float
(** [E[W_l | Q = x]] with [W_l = (W - (B - Q))^+]: the expected work lost
    in one interval starting from occupancy [x] (the closed-form display
    after eq. 14, generalized to any interarrival law through its
    integrated survival function).
    @raise Invalid_argument unless [0 <= occupancy <= buffer]. *)

val overflow_table : t -> buffer:float -> bins:int -> float array
(** The solver's overflow table in one batch: entry [j] of the returned
    [bins + 1]-length array is
    [expected_overflow ~buffer ~occupancy:(min buffer (j *. d))] for
    [d = buffer / bins], bitwise.  On a memoizing workload the finest
    table computed for the buffer is cached, so each doubling of a
    refinement chain only evaluates the new odd points and coarser
    levels are answered by striding.  On a memoizing workload the
    returned array may be the cache's own: callers only read it.
    @raise Invalid_argument unless buffer and bins are positive. *)

val zero_buffer_loss : t -> float
(** Closed form for [B = 0]: [E[(lambda - c)^+] / mean_rate] — a test
    oracle independent of the iteration. *)

type bins = {
  lower : float array;  (** [w_L(i)], index [i + m] for [i = -m .. m]. *)
  upper : float array;  (** [w_H(i)], same indexing. *)
  half_width : int;  (** [m]: arrays have length [2 m + 1]. *)
  step : float;  (** [d = buffer / m]. *)
}

val discretize : t -> buffer:float -> bins:int -> bins
(** Exact bin masses per eqs. 21-22 for [m = bins]; mass below [-B] and
    above [B] is folded into the edge bins, which is lossless for the
    queue recursion because increments beyond [+-B] saturate the buffer
    regardless.  @raise Invalid_argument unless buffer and bins are
    positive. *)

(** Cross-cell workload cache for parameter sweeps.

    A sweep whose cells differ only in buffer size re-derives the same
    model and workload once per cell; the cache shares a single
    workload per caller key.  Keys must be injective over the distinct
    models of the sweep (e.g. the hex-printed column coordinate); the
    service rate is part of the workload key automatically.  Cached
    workloads carry no grid memo — a solve attaches its own with
    {!with_memo} — so they hold no mutable state.  All operations are
    domain-safe; the lookup/hit counters let tests assert that a sweep
    creates exactly one entry per distinct key and hits on every other
    lookup.  Sharing a cache entry never changes a computed value, so
    cached sweeps remain bit-identical to uncached ones. *)
module Cache : sig
  type workload := t
  type t

  val create : unit -> t

  val model : t -> key:string -> (unit -> Model.t) -> Model.t
  (** Memoized model construction: builds on first use of [key], returns
      the cached model afterwards. *)

  val workload : t -> key:string -> Model.t -> service_rate:float -> workload
  (** The shared workload for [(key, service_rate)]; built with
      {!create} on first use. *)

  val lookups : t -> int
  (** Total [model] + [workload] calls so far. *)

  val hits : t -> int
  (** Lookups answered from the cache ([lookups - hits] is the number of
      entries ever built). *)

  val entries : t -> int
  (** Distinct models plus distinct workloads currently cached. *)
end
