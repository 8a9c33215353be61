(** Transform-domain superposition: the aggregate marginal of many
    multiplexed sources in O(log N) spectrum multiplies.

    The paper's fig. 11 superposes a handful of streams by brute-force
    pairwise convolution ({!Lrd_dist.Marginal.superpose} — O(N) re-binned
    convolutions).  Production links multiplex thousands to millions of
    sources, where that loop is the whole cost of building the model.
    This engine computes the same aggregate marginal two ways:

    - {b Exact (repeated squaring).}  The single-source histogram is
      lifted onto a uniform grid, sent through one real forward
      transform ({!Lrd_numerics.Fft.Real}, padded to the next power of
      two), and its half-spectrum is
      raised to the N-th power by binary exponentiation — about
      [2 log2 N] fused half-spectrum self-multiplies — then synthesized
      back with a single inverse transform.  A 10^5-source aggregate
      costs ~17 spectrum squarings instead of 10^5 convolutions.
      Heterogeneous populations are grouped into homogeneous classes on
      a shared grid: each class spectrum is exponentiated by its count
      and the class powers are multiplied together, which is exactly the
      convolution of the class aggregates.
    - {b Edgeworth (closed form).}  When N is large the exact grid would
      explode (the aggregate support grows linearly in N at fixed
      per-source resolution), but by then the CLT has taken over: the
      aggregate is built from the summed cumulants (mean, variance,
      third central moment) through a skew-corrected Edgeworth
      expansion, at O(bins) cost independent of N.

    [Auto] picks between them with a cost model on the exact grid size
    ({!decide}).  Both paths finish with a compensated mass-restoration
    pass (clamp the FFT's negative rounding noise, re-normalize with a
    Neumaier sum, restore the aggregate mean exactly) so the marginal
    fed to the solver keeps total mass 1 and the exact per-source mean —
    the service rate derived from it is bit-stable.

    Like {!Lrd_dist.Marginal.superpose}, results are renormalized to the
    {e per-source} mean (rates divided by N): the marginal of N
    multiplexed streams with buffer and service rate per stream held
    constant.

    Telemetry: [superpose/spectrum_multiplies] counts half-spectrum
    multiply passes, [superpose/exact_path_taken] /
    [superpose/fast_path_taken] count path selections, and the
    [superpose/mass_drift] gauge records the |1 - total mass| the
    restoration pass absorbed.  With tracing on, each construction emits
    a [superpose/exact] or [superpose/edgeworth] instant whose argument
    is N. *)

type method_ =
  | Exact  (** Repeated-squaring transform-domain convolution. *)
  | Edgeworth  (** Cumulant-sum closed form with skew correction. *)
  | Auto  (** {!Exact} when the grid fits {!decide}'s cap, else
              {!Edgeworth}. *)

val self_convolve : pmf:float array -> n:int -> float array
(** [self_convolve ~pmf ~n] is the [n]-fold linear self-convolution of
    [pmf] (length [g] -> length [n (g - 1) + 1]) by repeated squaring in
    the half-spectrum domain, with negative rounding noise clamped to
    zero.  Matches [n - 1] chained {!Lrd_numerics.Convolution}
    executions to ~1e-12 absolute; the engine's kernel, exposed for
    tests and benchmarks.  @raise Invalid_argument if [pmf] is empty or
    [n < 1]. *)

val decide :
  ?source_points:int ->
  ?max_points:int ->
  (Lrd_dist.Marginal.t * int) list ->
  method_
(** The [Auto] cost model, never returning [Auto]: [Exact] when every
    class can keep [source_points] (default 64) grid points across its
    own support without the aggregate grid exceeding [max_points]
    (default [2^20]); [Edgeworth] otherwise.  The exact path's cost is
    [O(max_points log max_points)] at the cap, so the cap bounds both
    memory and time; the fidelity floor keeps the exact path from
    degrading into a blur before the CLT makes the closed form the
    better approximation anyway.
    @raise Invalid_argument as for {!aggregate}. *)

val aggregate :
  ?method_:method_ ->
  ?bins:int ->
  ?source_points:int ->
  ?max_points:int ->
  (Lrd_dist.Marginal.t * int) list ->
  Lrd_dist.Marginal.t
(** [aggregate [(m1, n1); (m2, n2); ...]] is the marginal of the
    superposition of [n1] sources distributed as [m1], [n2] as [m2], …,
    renormalized to the per-source mean (rates divided by
    [N = n1 + n2 + ...]).  Classes with a zero count are ignored.  The
    result has at most [bins] atoms (default 256, like
    {!Lrd_dist.Marginal.superpose}); [source_points] and [max_points]
    tune the exact path's grid as in {!decide}.  When [method_] is
    [Exact] and the fidelity grid would exceed [max_points], the grid
    step is widened until it fits (the forced-exact degradation the
    [Auto] cost model exists to avoid).
    @raise Invalid_argument on an empty class list, a negative count,
    an all-zero population, [bins < 1], [source_points < 2], or
    [max_points < 16]. *)

val superpose :
  ?method_:method_ ->
  ?bins:int ->
  ?source_points:int ->
  ?max_points:int ->
  Lrd_dist.Marginal.t ->
  n:int ->
  Lrd_dist.Marginal.t
(** Homogeneous convenience: [aggregate [(t, n)]] — the drop-in
    replacement for {!Lrd_dist.Marginal.superpose} at any scale.
    @raise Invalid_argument if [n < 1]. *)
