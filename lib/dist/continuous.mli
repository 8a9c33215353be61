(** Continuous distributions used by the synthetic trace generators.

    The probability-integral transform that imposes a target marginal on
    fractional Gaussian noise needs cdfs and quantile functions; these are
    the laws used to mimic the paper's trace marginals (Gamma for the
    JPEG video rates, lognormal for Ethernet-like rates). *)

type t = {
  name : string;
  mean : float;
  variance : float;
  cdf : float -> float;
  quantile : float -> float;  (** Inverse cdf on (0, 1). *)
  sample : Lrd_rng.Rng.t -> float;
}

val gamma : shape:float -> scale:float -> t
(** Gamma distribution; quantile by safeguarded Newton on the cdf.
    @raise Invalid_argument unless both parameters are positive. *)

val lognormal : mu:float -> sigma:float -> t
(** Lognormal with log-mean [mu] and log-std [sigma]. *)

val normal : mean:float -> std:float -> t

val gamma_of_mean_cv : mean:float -> cv:float -> t
(** Gamma parameterized by mean and coefficient of variation
    ([std/mean]); convenient for matching trace statistics. *)
