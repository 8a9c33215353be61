(** Spectral estimation.

    The raw periodogram (an inconsistent spectrum estimator: its
    variance does not shrink with the sample size, which is why GPH
    and local Whittle regress over many bins), and alongside it the
    closed-form spectral densities of fGn (Paxson's approximation) and
    FARIMA(0, d, 0) for comparing estimates against theory. *)

type estimate = {
  frequencies : float array;  (** Angular frequencies in (0, pi]. *)
  power : float array;  (** Spectral density estimates. *)
}

val periodogram : float array -> estimate
(** Raw periodogram at the Fourier frequencies of the (power-of-two
    padded) series, excluding frequency zero; normalized so that the
    integral over (-pi, pi] approximates the variance.  Bin [j] holds
    [|X_{j+1}|^2 / (2 pi n)] at [2 pi (j + 1) / next_pow2 n].
    @raise Invalid_argument for series shorter than 8 points. *)

val half_spectrum :
  size:int -> float array -> re:float array -> im:float array -> unit
(** [half_spectrum ~size x ~re ~im] writes the half-spectrum
    [X_0 .. X_{size/2}] of the mean-removed [x], zero-padded to [size],
    into the prefixes of [re]/[im] — the real-input transform
    ({!Lrd_numerics.Fft.Real.cached_plan}) under the periodogram, the
    FFT autocovariance and the phase-randomized surrogate.
    @raise Invalid_argument unless [size] is a valid real plan size
    [>= Array.length x] and the buffers hold [size/2 + 1] bins. *)

val fgn_spectrum : hurst:float -> float -> float
(** Approximate spectral density of unit-variance fGn at angular
    frequency [w] in (0, pi]: the Paxson finite-sum approximation of
    [c |w|^(1-2H)]-type density (sum over aliased terms, 3 terms plus
    tail correction). *)

val farima_spectrum : d:float -> float -> float
(** Exact spectral density of FARIMA(0, d, 0) with unit innovation
    variance: [(2 sin(w/2))^(-2d) / (2 pi)]. *)
