(** Fractional Gaussian noise generation.

    fGn is the stationary increment process of fractional Brownian motion:
    a zero-mean Gaussian sequence with autocovariance
    [gamma(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2] (unit variance).
    It is the canonical exactly self-similar process with Hurst parameter
    [H], and underlies the synthetic video trace that substitutes for the
    paper's MTV recording.

    Two generators are provided: the exact circulant-embedding spectral
    method of Davies & Harte (O(n log n), used for production traces), and
    Hosking's recursive method (O(n^2), exact, used as a small-n oracle in
    the tests).  The Davies-Harte path is additionally exposed as a
    reusable {!Plan} so repeated draws at one [(hurst, n)] skip the
    eigenvalue setup and allocate nothing. *)

val autocovariance : hurst:float -> int -> float
(** [autocovariance ~hurst k] is the lag-[k] autocovariance of unit-
    variance fGn.  @raise Invalid_argument unless [0 < hurst < 1]. *)

module Plan : sig
  type t
  (** A reusable Davies-Harte plan for one [(hurst, n)] pair: circulant
      eigenvalues, rooted scale factors, FFT tables and complex scratch.
      Draws from a plan consume the same RNG stream and produce
      bit-identical samples to {!davies_harte}, at one FFT per draw with
      no array allocation.  Plans hold mutable scratch and must not be
      shared across domains; see {!domain_plan}. *)

  val make : hurst:float -> n:int -> t
  (** @raise Invalid_argument unless [0 < hurst < 1] and [n > 0]. *)

  val draw : t -> Lrd_rng.Rng.t -> dst:float array -> unit
  (** Writes the plan's [n] fresh samples into the prefix of [dst] without
      allocating.  @raise Invalid_argument if [dst] is too short. *)

  val generate : t -> Lrd_rng.Rng.t -> float array
  (** {!draw} into a fresh array. *)
end

val domain_plan : hurst:float -> n:int -> Plan.t
(** The calling domain's cached plan for [(hurst, n)], built on first
    use.  Safe under {!Lrd_parallel.Pool}: each worker domain keeps its
    own plans, so no synchronization or sharing occurs. *)

val davies_harte : Lrd_rng.Rng.t -> hurst:float -> n:int -> float array
(** [n] samples of zero-mean unit-variance fGn by circulant embedding.
    The embedding size is the next power of two at least [2 n]; for fGn
    the circulant eigenvalues are provably nonnegative, and tiny negative
    rounding artifacts are clamped to zero.  Equivalent to drawing from
    a fresh {!Plan.make}; callers that draw repeatedly at one
    [(hurst, n)] should hold a plan (or use {!domain_plan}) instead.
    @raise Invalid_argument unless [0 < hurst < 1] and [n > 0]. *)

val hosking : Lrd_rng.Rng.t -> hurst:float -> n:int -> float array
(** Exact O(n^2) generation by the Durbin-Levinson recursion.  Intended
    for tests and short sequences. *)
