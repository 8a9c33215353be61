(** Discrete marginal distributions of the fluid rate.

    The paper's source takes rates from a finite set [{lambda_1 ...
    lambda_M}] with probabilities [Pi = (pi_1 ... pi_M)], obtained in the
    experiments from a 50-bin histogram of a traffic trace.  This module
    represents such distributions and implements the two transformations
    of Section III used to study the impact of the marginal:

    - {!scale}: [lambda_i' = mean + a (lambda_i - mean)], width scaling at
      constant mean;
    - {!superpose}: the n-fold convolution renormalized to the original
      mean — the marginal of [n] statistically multiplexed copies with
      buffer and service rate per stream held constant. *)

type t
(** A finite rate distribution: strictly increasing rates with positive
    probabilities summing to one. *)

val create : rates:float array -> probs:float array -> t
(** Validates, sorts by rate, merges duplicate rates, drops zero-weight
    atoms, and normalizes the probabilities.
    @raise Invalid_argument on mismatched lengths, empty input, negative
    or non-finite entries, or an all-zero weight vector. *)

val of_points : (float * float) list -> t
(** [of_points [(rate, weight); ...]] — convenience over {!create}. *)

val constant : float -> t
(** Degenerate distribution at a single rate. *)

val rates : t -> float array
(** Strictly increasing support (fresh copy). *)

val probs : t -> float array
(** Probabilities aligned with {!rates} (fresh copy). *)

val size : t -> int
val mean : t -> float
val variance : t -> float
val std : t -> float

val support : t -> float * float
(** Smallest and largest rate. *)

val cdf : t -> float -> float
(** [cdf t x] is [Pr{rate <= x}]. *)

val peak_to_mean : t -> float
(** Largest rate divided by the mean (burstiness indicator). *)

val scale : ?clamp:bool -> t -> factor:float -> t
(** Width scaling at constant mean (Section III, second experiment set):
    [lambda_i' = mean + factor (lambda_i - mean)].  A factor below 1
    narrows the marginal.  Rates are fluid rates and must stay
    nonnegative: widening a marginal with atoms near zero can push them
    negative, in which case the default is to raise
    [Invalid_argument]; with [~clamp:true] such rates are clamped to
    zero instead (shifting the mean up slightly — the pragmatic choice
    for wide scalings of skewed marginals like the Ethernet trace's). *)

val superpose : ?bins:int -> t -> n:int -> t
(** Marginal of [n] independent superposed streams renormalized to the
    original mean: the n-fold convolution of the distribution, divided by
    [n].  The exact convolution support grows as [size^n], so the result
    is re-binned onto a uniform grid of at most [bins] (default 256)
    atoms after each convolution step; re-binning preserves total
    probability and the overall mean exactly (each bin keeps its
    conditional mean rate).  @raise Invalid_argument if [n < 1]. *)

val rebin : t -> bins:int -> t
(** Aggregates onto at most [bins] uniform-width bins over the support;
    each bin's representative rate is its conditional mean, so the
    distribution mean is preserved exactly. *)

val sampler : t -> (Lrd_rng.Rng.t -> float)
(** O(1) alias-method sampler for the distribution. *)

val pp : Format.formatter -> t -> unit
(** Compact rendering: size, mean, std, support. *)
