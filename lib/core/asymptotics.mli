(** Infinite-buffer tail asymptotics for the Introduction's motivating
    example: three arrival processes can share the same long-range
    correlation structure yet produce radically different queue tails —

    - fractional Brownian motion input gives a {e Weibullian} tail
      (Norros),
    - a single heavy-tailed on/off source gives a {e hyperbolic} tail
      (Brichet et al.),
    - light-tailed (e.g. exponential-epoch) modulation gives an
      {e exponential} tail (Cramér / effective bandwidths),

    which is precisely why the paper insists that correlation alone does
    not determine performance.  These closed forms are shape estimates
    (sharp up to sub-exponential prefactors), validated against the fluid
    simulator in the test suite and in the [abl-tails] experiment. *)

val kappa : float -> float
(** Norros' constant [H^H (1 - H)^(1-H)]. *)

val fbm_tail_exponent : hurst:float -> float
(** The Weibull shape [2 - 2H]: [log Pr{Q > b}] scales like
    [-b^(2 - 2H)]. *)

val fbm_tail :
  mean:float ->
  variance_coefficient:float ->
  hurst:float ->
  service_rate:float ->
  level:float ->
  float
(** Norros' lower-bound estimate for fBm input
    [A(t) = m t + sqrt(a m) Z(t)] with [Var A(t) = a m t^(2H)]:
    [Pr{Q > b} ~ exp(- (c - m)^(2H) b^(2-2H) / (2 kappa(H)^2 a m))].
    @raise Invalid_argument unless [0.5 <= hurst < 1], the queue is
    stable ([service_rate > mean]) and parameters are positive. *)

val onoff_tail :
  peak:float ->
  mean_on:float ->
  mean_off:float ->
  alpha:float ->
  service_rate:float ->
  level:float ->
  float
(** Hyperbolic shape estimate for a single on/off source with (shifted)
    Pareto ON periods of index [alpha] and mean [mean_on]: during an ON
    period the buffer grows at [peak - c], so a backlog above [b]
    requires a residual ON period longer than [b / (peak - c)], giving
    [Pr{Q > b} ~ rho_on ((b / ((peak - c) theta_on)) + 1)^(1 - alpha)]
    with [theta_on = mean_on (alpha - 1)].
    @raise Invalid_argument unless [mean rate < service_rate < peak] and
    [alpha > 1]. *)

val exponential_decay_rate :
  marginal:Lrd_dist.Marginal.t ->
  mean_epoch:float ->
  service_rate:float ->
  float
(** Cramér root of the embedded Lindley walk for the model with
    {e exponential} epochs: the unique [delta > 0] with
    [E[exp(delta W)] = sum_i pi_i / (1 - delta m (lambda_i - c)) = 1],
    so that [Pr{Q > b} ~ exp(-delta b)].  Requires stability
    ([mean rate < service_rate]) and at least one rate above the service
    rate (otherwise the queue is empty and the rate is infinite).
    @raise Invalid_argument if unstable or degenerate. *)
