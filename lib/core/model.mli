(** The cutoff-correlated modulated fluid traffic model (paper Section II).

    A source is a piecewise-constant fluid rate process: at the points of
    a renewal process with interarrival law [T], the rate is redrawn
    i.i.d. from a finite marginal distribution.  The autocovariance is
    then [phi(t) = sigma^2 Pr{tau_res >= t}] (eqs. 3-5) where [tau_res]
    is the residual interarrival time, so the correlation structure is
    inherited directly from the interarrival law:

    - with the truncated Pareto law (eq. 6), [phi(t)] matches the
      power-law decay [t^(1-alpha)] of an asymptotically second-order
      self-similar process with [H = (3 - alpha)/2] up to the cutoff lag
      [T_c], and is exactly zero beyond (eq. 8);
    - with an exponential law, the model degenerates into a short-range
      dependent (semi-Markov) source — the baseline of the
      interarrival-law ablation. *)

type t = {
  marginal : Lrd_dist.Marginal.t;  (** Fluid-rate distribution (Pi, Lambda). *)
  interarrival : Lrd_dist.Interarrival.t;  (** Epoch-length law. *)
}

val create :
  marginal:Lrd_dist.Marginal.t ->
  interarrival:Lrd_dist.Interarrival.t ->
  t

val cutoff_pareto :
  marginal:Lrd_dist.Marginal.t ->
  theta:float ->
  alpha:float ->
  cutoff:float ->
  t
(** The paper's model proper: truncated Pareto epochs. *)

val of_hurst :
  marginal:Lrd_dist.Marginal.t ->
  hurst:float ->
  theta:float ->
  cutoff:float ->
  t
(** Same, parameterized by the Hurst exponent: [alpha = 3 - 2 H].
    @raise Invalid_argument unless [0.5 < hurst < 1]. *)

val alpha_of_hurst : float -> float
(** [alpha = 3 - 2 H].  @raise Invalid_argument unless [0.5 < H < 1]
    (the LRD regime, [1 < alpha < 2]). *)

val mean_rate : t -> float
(** [mu = Pi Lambda 1^T] (eq. 2). *)

val rate_variance : t -> float
(** [sigma^2 = Pi Lambda^2 1^T - (Pi Lambda 1^T)^2] (eq. 4). *)

val mean_epoch : t -> float
(** Mean epoch duration (eq. 25 for the truncated Pareto law). *)

val residual_life_ccdf : t -> float -> float
(** [p(t) = Pr{tau_res >= t}] (eqs. 5, 7): the normalized autocorrelation
    of the rate process. *)

val covariance : t -> float -> float
(** [phi(t) = sigma^2 p(t)] (eqs. 3, 8).  Zero beyond the cutoff. *)

val service_rate_for_utilization : t -> utilization:float -> float
(** [c = mean_rate / utilization].
    @raise Invalid_argument unless utilization is in (0, 1). *)

val sample_epochs : t -> Lrd_rng.Rng.t -> n:int -> (float * float) array
(** [n] i.i.d. [(rate, duration)] epochs — a sample path of the source,
    suitable for feeding {!Lrd_fluidsim.Queue_sim.run_epochs} in Monte
    Carlo cross-checks. *)

val sample_trace :
  t -> Lrd_rng.Rng.t -> slots:int -> slot:float -> Lrd_trace.Trace.t
(** A sample path binned into fixed slots (average rate per slot), for
    comparing the model against trace-driven experiments. *)

val fit_from_trace :
  ?bins:int ->
  ?hurst:float ->
  ?cutoff:float ->
  Lrd_trace.Trace.t ->
  t
(** The paper's fitting procedure (Section III): the marginal is the
    [bins]-bin histogram of the trace (default 50); [alpha] comes from
    the Hurst parameter (estimated with the Abry-Veitch wavelet estimator
    when not supplied); [theta] is set so that the mean epoch duration at
    infinite cutoff (eq. 25) matches the trace's mean rate-residence time;
    the cutoff defaults to infinity. *)

val pp : Format.formatter -> t -> unit
