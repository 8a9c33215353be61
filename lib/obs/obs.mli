(** Telemetry: counters, gauges, log-bucketed histograms, bounded value
    trajectories, and lightweight wall-clock spans, aggregated per
    domain.

    Design constraints, in priority order:

    {ol
    {- {b The disabled path costs one branch.}  Every recording
       primitive first reads a single global flag and returns
       immediately when it is off, touching no per-domain state and
       allocating nothing.  Call sites on allocation-sensitive paths
       that pass floats should use the guarded idiom
       [if Obs.enabled () then Obs.Histogram.observe h v] so the float
       argument is never even boxed when telemetry is off (without
       flambda, a cross-module float argument boxes at the call).  The
       zero-allocation contract is pinned by a [Gc.minor_words] test.}
    {- {b The enabled hot path takes no lock.}  Counters, histograms
       and trajectories keep one private cell per domain (the
       {!Lrd_parallel.Arena} [Domain.DLS] pattern), so recording from
       inside {!Lrd_parallel.Pool} tasks never contends.  A global
       mutex is taken only on first use of an instrument on a domain
       (cell registration) and at {!snapshot} time.}
    {- {b Snapshots are deterministic.}  A snapshot lists every
       registered instrument sorted by name, whether or not it was ever
       recorded, and {!to_json} renders it byte-identically for equal
       snapshots.}}

    Aggregation across domains is read-racy by design: {!snapshot}
    reads other domains' cells without synchronization.  OCaml's memory
    model guarantees such reads see some written word (no tearing), so
    a snapshot taken while a pool is running can lag by a few updates
    but is never corrupt.  Snapshots taken while the system is quiet
    (the normal case: after a run, before exit) are exact. *)

val enabled : unit -> bool
(** Whether recording is on.  Off by default. *)

val set_enabled : bool -> unit
(** Flip the global switch.  Toggling while other domains are recording
    is safe (the flag is a single word); readings started before the
    flip may still land. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]) — exposed so instrumented
    layers can time regions without their own unix dependency. *)

val reset : unit -> unit
(** Zero every cell of every instrument (counts, histogram buckets,
    trajectories, gauge values).  Instruments stay registered.  Meant
    for tests and for the CLI between runs; not safe concurrently with
    enabled recording on other domains. *)

module Counter : sig
  type t

  val make : string -> t
  (** [make name] is the counter registered under [name], creating it
      on first call (subsequent calls return the same instrument).
      @raise Invalid_argument if [name] is registered as another kind. *)

  val incr : t -> unit
  (** Add one to the calling domain's cell.  No-op when disabled. *)

  val add : t -> int -> unit
  (** Add [k] (which must be nonnegative) to the calling domain's
      cell.  No-op when disabled. *)

  val value : t -> int
  (** Sum across all domains' cells. *)

  val per_domain : t -> (int * int) list
  (** [(domain_id, count)] pairs sorted by domain id, one per domain
      that recorded while enabled. *)
end

module Gauge : sig
  type t
  (** A last-write-wins instantaneous value, shared across domains (a
      gauge is written rarely — cache hit rates, last bound gap —
      so it does not need per-domain cells). *)

  val make : string -> t
  val set : t -> float -> unit
  val value : t -> float option
  (** [None] until the first enabled {!set}. *)
end

module Histogram : sig
  type t
  (** Power-of-two log-bucketed distribution of nonnegative values
      (latencies in seconds on every built-in use).  Bucket [i] with
      exponent [e] counts values in [[2^e, 2^{e+1})]; exponents span
      [min_exponent .. max_exponent], with one underflow bucket below
      (everything [< 2^min_exponent], including zero and negatives) and
      values at or above [2^{max_exponent+1}] clamped into the top
      bucket.  Per-domain cells also track count, sum, min and max. *)

  val min_exponent : int
  (** -30: the lowest bucket lower bound is [2^-30 s] (≈ 0.93 ns). *)

  val max_exponent : int
  (** 30: the top bucket starts at [2^30 s] (≈ 34 years). *)

  val bucket_count : int
  (** Number of buckets including the underflow bucket. *)

  val bucket_index : float -> int
  (** Bucket (0-based, 0 = underflow) a value falls in.  Exact at
      bucket boundaries: [bucket_index (ldexp 1.0 e)] is the bucket
      whose lower bound is [2^e]. *)

  val bucket_lower : int -> float
  (** Lower bound of bucket [i]; [neg_infinity] for the underflow
      bucket. *)

  val make : string -> t
  val observe : t -> float -> unit
  (** Record one value into the calling domain's cell.  No-op when
      disabled — but use the guarded idiom (see the module preamble) on
      allocation-sensitive paths. *)

  val count : t -> int
  (** Total observations across domains. *)
end

module Trajectory : sig
  type t
  (** A bounded ring of the most recent values, per domain — for
      ordered diagnostics like the solver's bound-gap trajectory where
      a histogram would destroy the ordering.  Each domain keeps its
      own chronological ring of the last [capacity] values. *)

  val make : ?capacity:int -> string -> t
  (** Default capacity 64 per domain.  The capacity of an existing
      instrument is not changed by a later [make] with a different
      [?capacity]. *)

  val record : t -> float -> unit
  (** Append to the calling domain's ring (evicting the oldest value
      once full).  No-op when disabled; use the guarded idiom on
      allocation-sensitive paths. *)
end

module Span : sig
  type t
  (** A named wall-clock region: durations land in a {!Histogram} of
      seconds registered under the span's name. *)

  val make : string -> t

  val start : unit -> float
  (** The current time when enabled, [neg_infinity] when disabled.
      Allocation-free when disabled (the sentinel is a static
      constant). *)

  val stop : t -> float -> unit
  (** [stop t t0] records [now () - t0] if recording was enabled at
      both ends (a [t0] from a disabled {!start} is ignored). *)
end

(** {1 Snapshots and export} *)

type histogram_data = {
  count : int;
  sum : float;
  min : float;  (** Meaningless when [count = 0]. *)
  max : float;
  buckets : (float * int) list;
      (** [(bucket lower bound, count)] for nonzero buckets only, in
          increasing bound order; the underflow bucket reports bound
          [neg_infinity]. *)
}

type value =
  | Counter of { total : int; per_domain : (int * int) list }
  | Gauge of float option
  | Histogram of histogram_data
  | Trajectory of (int * float array) list
      (** Per-domain rings, oldest value first, sorted by domain id. *)

type snapshot = (string * value) list
(** Every registered instrument, sorted by name. *)

val snapshot : unit -> snapshot

val find : snapshot -> string -> value option

val histogram_quantile : histogram_data -> q:float -> float
(** Lower bound of the bucket containing the [q]-quantile (a
    conservative estimate, exact to within one bucket width).  [nan]
    for an empty histogram. *)

val pp_text : Format.formatter -> snapshot -> unit
(** One line per instrument: totals and per-domain breakdown for
    counters, count/mean/min/p50/p90/max for histograms, the recent
    points for trajectories. *)

val to_json : snapshot -> string
(** Deterministic JSON: instruments sorted by name, fixed key order,
    floats printed with round-trippable precision, non-finite floats
    rendered as [null].  Equal snapshots yield byte-identical
    strings. *)

(** {1 Timeline tracing}

    A structured event journal, independent of the metric instruments
    above: each domain records begin/end/instant events into a private
    bounded ring ([Domain.DLS], lock-free, allocation-free once the
    domain's ring exists), and the rings merge into one deterministic
    stream at export time.  Tracing has its own on/off switch — metrics
    and traces can be enabled independently — and {!reset} above does
    {e not} clear the journal (use {!Trace.reset}). *)

module Trace : sig
  val enabled : unit -> bool
  (** Whether trace recording is on.  Off by default. *)

  val set_enabled : bool -> unit

  val capacity : unit -> int
  (** Per-domain ring capacity (default 8192 events).  Once a ring is
      full the oldest events are evicted and counted in {!dropped}. *)

  val set_capacity : int -> unit
  (** Reallocate every existing ring (and future rings) to hold [n]
      events, clearing all recorded events and drop counts.  Not safe
      concurrently with enabled recording on other domains.
      @raise Invalid_argument if [n < 1]. *)

  val instant : ?arg:int -> string -> unit
  (** Record a point event.  [name] should be a static string (the ring
      stores the pointer); [?arg] is an optional small integer payload
      (grid size, cell index...).  No-op when disabled — but use the
      guarded idiom [if Obs.Trace.enabled () then Obs.Trace.instant ...]
      on allocation-sensitive paths so the [Some arg] option is never
      built when tracing is off. *)

  val begin_ : ?arg:int -> string -> unit
  (** Open a duration slice on the calling domain's track.  Every
      [begin_] must be balanced by an {!end_} with the same name on the
      same domain (Chrome trace-event B/E semantics). *)

  val end_ : ?arg:int -> string -> unit

  val with_span : ?arg:int -> string -> (unit -> 'a) -> 'a
  (** [with_span name f] brackets [f] with {!begin_}/{!end_}, also on
      exception.  When disabled this is just [f ()]. *)

  type phase = Begin | End | Instant

  type event = {
    name : string;
    phase : phase;
    ts : float;  (** Seconds since process start. *)
    domain : int;
    seq : int;  (** Per-domain record index (survives ring eviction). *)
    arg : int option;
  }

  val events : unit -> event list
  (** All live events merged across domains, sorted by
      [(ts, domain, seq)] — deterministic for fixed recorded
      contents. *)

  val dropped : unit -> int
  (** Total events evicted by ring overflow, across domains. *)

  val reset : unit -> unit
  (** Clear every ring and drop count.  Rings stay allocated.  Not safe
      concurrently with enabled recording on other domains. *)

  val to_chrome_json : unit -> string
  (** The merged stream as Chrome trace-event JSON (the array form),
      loadable in Perfetto or [chrome://tracing]: one object per event
      with [name]/[ph]/[ts] (µs)/[pid]/[tid] keys, domains as tid
      tracks, plus [thread_name] metadata events naming each track. *)
end
