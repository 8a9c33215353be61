(** Linear convolution of real-valued sequences.

    The linear convolution of [a] (length [na]) and [b] (length [nb]) is
    the sequence of length [na + nb - 1] with
    [c.(k) = sum_j a.(j) * b.(k - j)].  This is the kernel of the paper's
    queue-occupancy recursion (eq. 19): each solver iteration convolves the
    occupancy vector with the discretized increment distribution.

    Every FFT path runs on the real-input engine {!Fft.Real}: {!fft}
    for one-shot products, and a {!real_plan} — the kernel's
    half-spectrum cached once — for the solver's repeated convolutions
    against a fixed kernel.  The planned entry points ({!execute},
    {!execute_real_circular}) write into caller-owned buffers and work
    in reused {!scratch}, so the steady state of an iterated solve
    performs zero heap allocation.  {!direct} is the exact oracle. *)

val direct : float array -> float array -> float array
(** O(na * nb) schoolbook convolution.  Exact up to rounding; used as the
    oracle for {!fft} and preferred for very short inputs. *)

val direct_into : float array -> float array -> dst:float array -> unit
(** [direct_into a b ~dst] writes the [na + nb - 1] convolution values
    into the prefix of [dst] without allocating.
    @raise Invalid_argument if an input is empty or [dst] is too short. *)

val fft : float array -> float array -> float array
(** O(n log n) convolution via the real-input transform engine (as
    suggested in the paper, Section II, citing Oppenheim & Schafer):
    both inputs are real, so each costs one half-size complex
    transform, on a {!Fft.good_size} grid rather than a power of two. *)

val real_transform_size_for : int -> int
(** The transform size {!fft} and default plans use for a linear output
    of the given length: the smallest even fast size whose half is also
    fast ([2 * Fft.good_size ((want + 1) / 2)]). *)

val prefer_fft : na:int -> nb:int -> bool
(** The single measured FFT/direct crossover used by {!auto} and by the
    solver's grid-level construction: true when the length product
    [na * nb] is large enough for the FFT to win. *)

val prefer_fft_fixed : transform_size:int -> direct_ops:int -> bool
(** Crossover for computations whose FFT cost is fixed by
    [transform_size] (a forward/inverse pair at that power-of-two size)
    while the direct path costs [direct_ops] multiply-adds — e.g. the
    autocovariance estimator, whose transform size [next_pow2 (2 n)]
    does not shrink with [max_lag].  Derived from the same centralized
    {!fft_product_threshold} calibration as {!prefer_fft}; any positive
    transform size is accepted (fast sizes cost their ceil-log2).
    @raise Invalid_argument unless [transform_size] is positive. *)

val auto : float array -> float array -> float array
(** Picks {!direct} or {!fft} using {!prefer_fft}. *)

type real_plan
(** A reusable real-transform plan for repeated convolutions against a
    fixed kernel, as in the solver where the increment distribution [w]
    is fixed across iterations while the occupancy vector changes.  The
    kernel's half-spectrum is precomputed; each execution is one
    {!Fft.Real.convolve}: a half-size forward transform, one pass over
    the [n/2 + 1] independent bins, and a half-size inverse.  A plan is
    immutable; an execution works in a {!scratch}. *)

type scratch
(** The buffers one execution works in: a real-transform plan of the
    plan's size and half-spectrum buffers.  One scratch must not serve
    two executions at the same time. *)

val make_real_plan :
  ?size:int ->
  kernel:float array ->
  max_signal:int ->
  unit ->
  real_plan
(** [make_real_plan ~kernel ~max_signal ()] precomputes the kernel
    half-spectrum on the default {!real_transform_size_for} grid, large
    enough for linear convolution with signals of length
    [<= max_signal].  An explicit [size] (an even fast size, at least
    [max_signal]) overrides the grid; when it is smaller than the full
    linear length the plan computes CIRCULAR convolutions mod [size]
    with the kernel wrapped at build time — the solver's aliased
    Lindley step.  The transform tables come from the calling domain's
    {!Fft.Real.cached_plan}.
    @raise Invalid_argument on an empty kernel, a nonpositive
    [max_signal], or an unsupported/too-small [size]. *)

val local_scratch : real_plan -> scratch
(** The calling domain's scratch for the plan's size: one per domain
    and size, built on first use from the domain's
    {!Fft.Real.cached_plan}, shared by every plan of that size run on
    the domain.  Allocation-free once built. *)

val make_scratch : real_plan -> scratch
(** Fresh scratch for the plan's size that shares the plan's read-only
    transform tables: what a plan carries when it must execute beside
    another plan of its size, or on a domain that should build no
    tables of its own (the solver's ceiling chain on the helper
    domain). *)

val real_transform_size : real_plan -> int
(** The transform grid the plan runs on. *)

val execute : real_plan -> float array -> dst:float array -> unit
(** [execute plan a ~dst] writes [a * kernel] (length
    [na + kernel_len - 1]) into the prefix of [dst], in the calling
    domain's {!local_scratch}.  Performs zero heap allocation.
    @raise Invalid_argument if [a] is empty or longer than the plan's
    [max_signal], [dst] is too short, or the plan is circular. *)

val execute_real_circular :
  real_plan -> scratch -> signal:Fft.vec -> len:int -> dst:Fft.vec -> unit
(** [execute_real_circular plan scratch ~signal ~len ~dst] convolves
    [signal.(0 .. len - 1)] (zero-extended) with the kernel CIRCULARLY
    mod the plan size, writing all [size] wrapped values into [dst].
    Reads and writes Bigarray vectors — the solver's unboxed state —
    and performs zero heap allocation.  For a plan whose size covers
    the full linear length this is the linear convolution followed by
    the (numerically zero) padding tail.  The result does not depend
    on which scratch of the plan's size it ran in.
    @raise Invalid_argument on a bad [len], a [dst] shorter than the
    plan size, or a scratch of another size. *)

val direct_into_big :
  Fft.vec -> len:int -> kernel:float array -> dst:Fft.vec -> unit
(** {!direct_into} over Bigarray vectors: schoolbook-convolves the
    first [len] entries of the signal with [kernel] into the prefix of
    [dst], allocation-free.  @raise Invalid_argument on empty inputs or
    a too-short [dst]. *)
