(** Real-input fast Fourier transforms.

    Every signal the library transforms is real: the solver's occupancy
    vectors, the Davies–Harte spectra and the estimators' series.  So
    the one public engine is {!Real}, which transforms a real signal of
    even fast length [n] through a single half-size complex transform
    and produces the half-spectrum [X_0 .. X_{n/2}] that conjugate
    symmetry completes.  The forward transform computes
    [X_k = sum_j x_j exp(-2 i pi k j / n)]; the inverse includes the
    [1/n] normalization.  The complex mixed-radix core (power-of-two
    butterflies plus radix-3 and radix-5 splits) is private to this
    module; plans precompute every twiddle factor, and a planned
    transform performs no heap allocation.  {!Real.convolve} is the one
    fused path every planned convolution runs. *)

val is_power_of_two : int -> bool
(** [is_power_of_two n] is [true] iff [n] is a positive power of two. *)

val next_power_of_two : int -> int
(** [next_power_of_two n] is the smallest power of two [>= max 1 n]. *)

val is_fast_size : int -> bool
(** True iff [n] is of the form [2^a * f] with [f] in [{1, 3, 5, 15}] —
    the sizes the mixed-radix engine serves. *)

val good_size : int -> int
(** [good_size n] is the cheapest fast size [>= max 1 n] under a
    measured per-point cost model (odd-radix split stages cost a few
    percent per point over the pure power-of-two butterflies, so a
    slightly larger power of two can beat e.g. a [15 * 2^k] grid).
    Consecutive fast sizes are within 25% of each other, so
    near-power-of-two grids stop paying the 2x padding penalty. *)

type vec =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Unboxed float vectors shared with the solver's Bigarray state. *)

val dft_naive : re:float array -> im:float array -> float array * float array
(** Direct O(N^2) discrete Fourier transform of the given complex signal,
    returned as fresh arrays.  Any length is accepted.  Intended as a test
    oracle for {!Real}. *)

(** Real-input transforms via the pack-real trick: a real signal of
    even fast length [n] is transformed by one complex FFT of size
    [n/2] plus an O(n) split pass, about half the work of a padded
    complex transform.  Only the half-spectrum [X_0 .. X_{n/2}] is
    produced/consumed; the upper half is its conjugate mirror.  Plans
    own scratch and must not be used concurrently. *)
module Real : sig
  type t

  val make_plan : int -> t
  (** [make_plan n] plans real transforms of size [n].
      @raise Invalid_argument unless [n] is even and [n/2] satisfies
      {!is_fast_size}. *)

  val cached_plan : int -> t
  (** Per-domain memoized {!make_plan}: real plans hold mutable
      scratch, so the memo table lives in domain-local storage and
      never shares a plan between domains. *)

  val clone : t -> t
  (** [clone t] is a plan of the same size that shares [t]'s immutable
      twiddle and input-order tables but owns fresh scratch, so the two
      can run one after the other, or at the same time on two domains,
      without either recomputing the tables.  Like any plan, a clone
      must not be used concurrently with itself. *)

  val size : t -> int
  (** The signal length [n]. *)

  val spectrum_length : t -> int
  (** [n/2 + 1], the number of independent spectrum bins. *)

  val forward_ip :
    t ->
    signal:float array ->
    len:int ->
    spec_re:float array ->
    spec_im:float array ->
    unit
  (** Transform [signal.(0 .. len - 1)], implicitly zero-extended to
      the plan size, into the half-spectrum [spec_re/spec_im.(0 ..
      n/2)].  Allocation-free.  @raise Invalid_argument if [len]
      exceeds the plan size or a buffer is too short. *)

  val inverse_ip :
    t ->
    spec_re:float array ->
    spec_im:float array ->
    signal:float array ->
    len:int ->
    unit
  (** Inverse of {!forward_ip} with [1/n] normalization, writing the
      first [len] samples of the reconstructed signal. *)

  val synthesize_ip :
    t ->
    spec_re:float array ->
    spec_im:float array ->
    signal:float array ->
    len:int ->
    unit
  (** [synthesize_ip] evaluates the UNnormalized sum
      [y_j = sum_k X_k exp(-2 i pi j k / n)] of a Hermitian spectrum
      given by its half [X_0 .. X_{n/2}] — the Davies–Harte synthesis
      step — writing the first [len] samples. *)

  (** The signal buffers {!convolve} reads and writes: float arrays or
      Bigarray vectors. *)
  type _ buffer = Floats : float array buffer | Vec : vec buffer

  val convolve :
    t ->
    'a buffer ->
    kernel_re:float array ->
    kernel_im:float array ->
    spec_re:float array ->
    spec_im:float array ->
    signal:'a ->
    len:int ->
    dst:'a ->
    dst_len:int ->
    unit
  (** [convolve t kind ~kernel_re ~kernel_im ~spec_re ~spec_im ~signal
      ~len ~dst ~dst_len] writes the first [dst_len] samples of the
      CIRCULAR convolution (mod the plan size) of [signal.(0 .. len - 1)],
      zero-extended, with the kernel whose half-spectrum is
      [kernel_re/kernel_im] (as {!forward_ip} produces it).  Bitwise
      equal to {!forward_ip}, a bin-wise complex multiply by the kernel
      spectrum and {!inverse_ip}, in one forward transform, one pass
      over the bin pairs and one inverse transform.  [spec_re/spec_im]
      (at least [n/2 + 1] long) are scratch.  Allocation-free.
      @raise Invalid_argument if [len] or [dst_len] exceeds the plan
      size or a buffer is too short. *)
end
