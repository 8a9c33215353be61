(** Index-tagged task sets and two-party fork-join on one process-wide
    crew of worker domains.

    The experiment layer evaluates grids of independent solver / simulator
    cells; a pool handle spreads those cells across up to [workers] crew
    domains (plus the calling domain, which participates) while keeping
    the results deterministic: every task writes into a pre-sized result
    slot identified by its index, so the output never depends on the
    scheduling order.  Only the standard library and [Unix] are used — no
    domainslib dependency.

    The crew serves {!iter} and {!both} alike, one job at a time; a job
    that finds another in flight runs on its caller alone.  A member is
    spawned by the first job that needs it, spins briefly after each job,
    then sleeps, and retires after half a second without one: every minor
    collection stops idle domains too.

    Scheduling: every participant, workers and caller alike, claims the
    next task index from one shared atomic counter until the indices run
    out, so tasks start in ascending index order and an unbalanced grid
    (e.g. deep-buffer solver cells next to trivial ones) still keeps every
    domain busy.  Tasks are cells costing milliseconds, so the counter is
    nowhere near contention.  A participant that runs out of tasks stays
    until the last one completes and lends itself to the tasks still
    running: it runs the second thunk of their {!both} calls.  It spins
    briefly after each, then sleeps until the next or the job's end.

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
(** A handle whose task sets use up to [workers] crew members (default
    [Domain.recommended_domain_count () - 1], at least 0); it spawns
    nothing.  With 0 workers every task runs in the calling domain, in
    index order.  @raise Invalid_argument if [workers < 0]. *)

val parallelism : t -> int
(** Number of participating domains: workers plus the calling domain. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] evaluates [f xs.(i)] for every [i] across the pool and
    returns the results in index order.  Calling [map] from inside a task
    of any pool, or after {!shutdown}, raises [Invalid_argument]. *)

val map2_grid :
  t -> xs:'a array -> ys:'b array -> f:('a -> 'b -> 'c) -> 'c array array
(** [map2_grid pool ~xs ~ys ~f] returns [cells] with
    [cells.(iy).(ix) = f xs.(ix) ys.(iy)], evaluating the row-major flattened
    grid across the pool.  Matches the orientation of
    [Lrd_experiments.Sweep.psurface]. *)

val iter : t -> (int -> unit) -> int -> unit
(** [iter pool task n] runs [task i] for [i = 0 .. n - 1] across the pool.
    The primitive behind [map] / [map2_grid], exposed for callers that write
    into their own pre-sized buffers. *)

val shutdown : t -> unit
(** Retires the crew members parked at that moment and waits until they
    have, so none records telemetry afterwards; members busy with another
    job retire once idle.  Idempotent.  The pool must be idle (no [map]
    in flight). *)

val with_pool : ?workers:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)

val both : (unit -> unit) -> (unit -> unit) -> unit
(** [both f g] runs [f] on the calling domain and [g] on another domain
    at the same time, and returns once both are done: two-party
    fork-join for work that splits into two independent halves.  It has
    two callers: the solver's floor and ceiling chains between bound
    checks, and workload quantization, which deals a grid's points
    between the two thunks.  Outside a pool task [g] runs on a parked
    crew member, the same members a pool's tasks run on, spawned if
    none is live.  Inside a task of a crew-run {!iter}, [g] is offered
    to the job's participants that have run out of tasks; if none has
    taken it by the time [f] returns, the caller runs [g] itself.
    [both] itself allocates nothing once a member is up.

    [both] runs [f] then [g] on the calling domain instead when the
    machine has one core ([Domain.recommended_domain_count () = 1]),
    when the caller runs a task of a task set that runs on its caller
    alone (no workers, or another job held the crew), when its job's one
    offer is in use by another [both] (another task's, or the enclosing
    one of a nested call), or when another job holds the crew: a nested
    [both] from either thunk outside a task, or a call from another
    domain while a job is in flight.

    Either way both thunks run to completion.  If one raises, its
    exception is re-raised (with its backtrace) once the other has
    finished; if both raise, [f]'s exception wins.  [f] and [g] must not
    share mutable state, except that they may write disjoint elements of
    one array. *)
