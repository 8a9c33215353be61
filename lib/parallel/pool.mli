(** A fixed pool of worker domains with a work-stealing scheduler for
    embarrassingly parallel index-tagged task sets.

    The experiment layer evaluates grids of independent solver / simulator
    cells; this pool spreads those cells across [Domain.recommended_domain_count
    () - 1] worker domains (plus the calling domain, which participates) while
    keeping the results deterministic: every task writes into a pre-sized
    result slot identified by its index, so the output never depends on the
    scheduling order.  Only the OCaml standard library is used ([Domain],
    [Mutex], [Condition], [Atomic]) — no domainslib dependency.

    Scheduling: the task indices are split into contiguous per-participant
    chunks, each held in a double-ended queue.  A participant pops from the
    tail of its own deque (preserving chunk locality) and, when empty, steals
    from the head of the other deques, so an unbalanced grid (e.g. deep-buffer
    solver cells next to trivial ones) still keeps every domain busy.

    Determinism contract: tasks must not share mutable state except through
    domain-safe structures, and any randomness must be derived from the task
    index (see [Lrd_rng.Rng.split_indexed]), never from a generator shared
    across tasks.  Under that contract, [map pool f xs] is bit-identical to
    [Array.map f xs] for any pool size.

    A pool whose tasks raise re-raises the first captured exception (with its
    backtrace) in the caller once the task set has drained; remaining tasks
    are skipped.  The pool survives the exception and can be reused. *)

type t

val create : ?workers:int -> unit -> t
(** Spawns [workers] worker domains (default
    [Domain.recommended_domain_count () - 1], at least 0).  With 0 workers the
    pool is still valid: every task runs in the calling domain, in index
    order.  @raise Invalid_argument if [workers < 0]. *)

val parallelism : t -> int
(** Number of participating domains: workers plus the calling domain. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] evaluates [f xs.(i)] for every [i] across the pool and
    returns the results in index order.  Nested use (calling [map] from
    inside a task of the same pool) raises [Invalid_argument]. *)

val map2_grid :
  t -> xs:'a array -> ys:'b array -> f:('a -> 'b -> 'c) -> 'c array array
(** [map2_grid pool ~xs ~ys ~f] returns [cells] with
    [cells.(iy).(ix) = f xs.(ix) ys.(iy)], evaluating the row-major flattened
    grid across the pool.  Matches the orientation of
    [Lrd_experiments.Sweep.surface]. *)

val iter : t -> (int -> unit) -> int -> unit
(** [iter pool task n] runs [task i] for [i = 0 .. n - 1] across the pool.
    The primitive behind [map] / [map2_grid], exposed for callers that write
    into their own pre-sized buffers. *)

val shutdown : t -> unit
(** Signals the workers to exit and joins their domains.  Idempotent.  The
    pool must be idle (no [map] in flight). *)

val with_pool : ?workers:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)

val both : (unit -> unit) -> (unit -> unit) -> unit
(** [both f g] runs [f] on the calling domain and [g] on a helper
    domain at the same time, and returns once both are done: two-party
    fork-join for work that splits into two independent halves, such as
    the solver's floor and ceiling chains between bound checks.  The
    helper is one process-wide domain, spawned by the first call that
    needs it; it spins briefly after each job, then sleeps, and exits
    after half a second without a job, so a process that stops calling
    [both] soon stops paying for it.  The next call spawns a fresh helper.  [both] itself
    allocates nothing once the helper is up.

    [both] runs [f] then [g] on the calling domain instead when the
    machine has one core ([Domain.recommended_domain_count () = 1]),
    when the caller is running a pool task (a grid's parallelism is the
    pool's), or when the helper is busy: a nested [both] from either
    thunk, or a call from another domain while one is in flight.

    Either way both thunks run to completion.  If one raises, its
    exception is re-raised (with its backtrace) once the other has
    finished; if both raise, [f]'s exception wins.  [f] and [g] must not
    share mutable state. *)
