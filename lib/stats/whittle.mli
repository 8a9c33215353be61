(** Local Whittle (Gaussian semiparametric) estimation of the Hurst
    parameter — the estimator family the paper actually cites for its
    H = 0.83 / 0.9 values ("Using a Whittle or wavelet based
    estimator").

    Robinson's local Whittle estimator minimizes, over the memory
    parameter [d] (with [H = d + 1/2]),

    [R(d) = log( (1/m) sum_j w_j^(2d) I(w_j) ) - (2d/m) sum_j log w_j]

    on the [m] lowest Fourier frequencies [w_j], where [I] is the
    periodogram.  It is consistent for stationary LRD series without
    assuming a full parametric spectrum, and more efficient than the GPH
    log-periodogram regression. *)

type fit = {
  hurst : float;  (** Point estimate, [d + 1/2]. *)
  memory : float;  (** The memory parameter [d]. *)
  frequencies : int;  (** Number of Fourier frequencies used. *)
  objective : float;  (** Value of the profile objective at the optimum. *)
}

val local_whittle : ?frequencies:int -> float array -> fit
(** Estimate on the [frequencies] lowest Fourier frequencies (default
    [n^0.65], a standard bandwidth choice).  The objective is minimized
    over [d] in [-0.49, 0.99] by golden-section search (it is unimodal
    in practice; the bracket covers anti-persistent through strongly
    persistent series).  The periodogram is {!Spectral.periodogram}'s.
    @raise Invalid_argument for series shorter than 64 points. *)
