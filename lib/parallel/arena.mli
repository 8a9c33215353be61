(** Per-domain workspace arenas.

    Plans and workspaces (FFT plans with scratch buffers, generator
    eigenvalue tables, estimator scratch) are mutable and must not be
    shared across domains, yet rebuilding them per call defeats their
    purpose.  An arena memoizes workspaces *per domain*: each domain
    that calls {!get} lazily grows its own private table (backed by
    [Domain.DLS]), so the hot path takes no lock and two pool tasks
    running on different domains can never alias one another's scratch.

    Composition with {!Pool}: a crew domain lives until it idles half a
    second, so a workspace built by one task is reused by every later
    task of the same shape on that domain.  Because a workspace is only
    ever an accelerator (plans and scratch change *where* a value is
    computed, never the value), per-domain caching preserves the pool's
    determinism contract: results are bit-identical whatever domain ran
    the cell, or whether the arena was warm or cold. *)

type ('k, 'v) t
(** An arena producing a ['v] workspace per distinct ['k] key, per
    domain.  Keys are compared with structural equality/hash
    ([Hashtbl]). *)

val create : ('k -> 'v) -> ('k, 'v) t
(** [create build] is an arena whose per-domain entries are made on
    first use by [build key].  [build] runs on the requesting domain. *)

val get : ('k, 'v) t -> 'k -> 'v
(** [get arena key] is the calling domain's workspace for [key],
    building it on first use.  Never blocks; never shares a value
    across domains.  The returned workspace may hold mutable scratch:
    callers must not retain it across a point where other code on the
    same domain could call [get] with the same key and mutate it
    (i.e. treat it as valid for the current computation only). *)

val size : ('k, 'v) t -> int
(** Number of entries in the calling domain's table (for tests). *)
