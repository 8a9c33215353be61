(** Convolution of real-valued sequences.

    The linear convolution of [a] (length [na]) and [b] (length [nb]) is
    the sequence of length [na + nb - 1] with
    [c.(k) = sum_j a.(j) * b.(k - j)].  This is the kernel of the paper's
    queue-occupancy recursion (eq. 19): each solver iteration convolves the
    occupancy vector with the discretized increment distribution.

    The solver's repeated convolutions against a fixed kernel run on a
    {!real_plan}: the kernel's half-spectrum on the real-input engine
    {!Fft.Real}, cached once.  Plans are power-of-two sized and
    CIRCULAR only — the output is the linear convolution wrapped modulo
    the plan size, which the solver's boundary fold absorbs.  {!execute_real_circular} writes
    into a caller-owned buffer and works in a reused {!scratch}, so the
    steady state of an iterated solve performs zero heap allocation.
    {!direct} is the exact linear oracle the tests compare against. *)

val direct : float array -> float array -> float array
(** O(na * nb) schoolbook linear convolution.  Exact up to rounding;
    the oracle for the planned and solver paths. *)

val prefer_fft_fixed : transform_size:int -> direct_ops:int -> bool
(** Crossover for computations whose FFT cost is fixed by
    [transform_size] (a forward/inverse pair at that power-of-two size)
    while the direct path costs [direct_ops] multiply-adds — e.g. the
    autocovariance estimator, whose transform size [next_pow2 (2 n)]
    does not shrink with [max_lag].  Derived from one measured
    FFT/direct crossover; any positive transform size is accepted (a
    size between powers of two costs its ceil-log2).
    @raise Invalid_argument unless [transform_size] is positive. *)

type real_plan
(** A reusable circular real-transform plan for repeated convolutions
    against a fixed kernel, as in the solver where the increment
    distribution [w] is fixed across iterations while the occupancy
    vector changes.  The kernel's half-spectrum is precomputed; each
    execution is one {!Fft.Real.convolve}: a half-size forward
    transform, one pass over the [n/2 + 1] independent bins, and a
    half-size inverse.  A plan is immutable; an execution works in a
    {!scratch}. *)

type scratch
(** The buffers one execution works in: a real-transform plan of the
    plan's size and half-spectrum buffers.  One scratch must not serve
    two executions at the same time. *)

val make_real_plan :
  size:int -> kernel:float array -> max_signal:int -> real_plan
(** [make_real_plan ~size ~kernel ~max_signal] precomputes the kernel
    half-spectrum for convolutions mod [size] with signals of length
    [<= max_signal]; a kernel longer than [size] is wrapped mod [size]
    at build time.  [size] must be a power of two of at least
    [2 (max_signal - 1)]: for the solver's pmf of [m + 1] bins against a
    [2 m + 1]-bin kernel, such a size wraps the linear output only onto
    states [t <= 3 m - size <= m], which its boundary fold collapses,
    and above [3 (max_signal - 1)] the product does not wrap at all.
    The transform tables come from the calling domain's
    {!Fft.Real.cached_plan}.
    @raise Invalid_argument on an empty kernel, a nonpositive
    [max_signal], or a [size] below [2 (max_signal - 1)] or not a power
    of two. *)

val local_scratch : real_plan -> scratch
(** The calling domain's scratch for the plan's size: one per domain
    and size, built on first use from the domain's
    {!Fft.Real.cached_plan}, shared by every plan of that size run on
    the domain.  Allocation-free once built. *)

val make_scratch : real_plan -> scratch
(** Fresh scratch for the plan's size that shares the plan's read-only
    transform tables: what a plan carries when it must execute beside
    another plan of its size, or on a domain that should build no
    tables of its own (the solver's ceiling chain on a crew
    domain). *)

val execute_real_circular :
  real_plan -> scratch -> signal:Fft.vec -> len:int -> dst:Fft.vec -> unit
(** [execute_real_circular plan scratch ~signal ~len ~dst] convolves
    [signal.(0 .. len - 1)] (zero-extended) with the kernel CIRCULARLY
    mod the plan size, writing all [size] wrapped values into the
    prefix of [dst].  Reads and writes Bigarray vectors — the solver's
    unboxed state — and performs zero heap allocation.  The result does
    not depend on which scratch of the plan's size it ran in.
    @raise Invalid_argument on a [len] outside [[1, max_signal]], a
    [dst] shorter than the plan size, or a scratch of another size. *)
