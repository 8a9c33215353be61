(** Multi-time-scale Markovian source: a superposition of independent
    two-state (on/off) Markov modulators with geometrically spaced time
    constants.

    A single finite Markov chain has autocorrelation that is a mixture of
    geometrics with as many distinct decay rates as the chain has
    relevant eigenvalues; a sum of [L] independent symmetric two-state
    layers achieves exactly the mixture
    [r(t) = sum_k v_k e_k^t / sum_k v_k] where layer [k] has second
    eigenvalue [e_k] and variance share [v_k].  Placing the time
    constants geometrically and weighting them like [tau^(2H-2)]
    reproduces the power-law decay [t^(2H-2)] of an H-self-similar
    process over any prescribed finite range of lags — the classical
    "enough exponentials make a power law" construction the paper cites
    (Li & Hwang; Robert & Le Boudec).

    The price is the marginal: the aggregate rate is a weighted sum of
    independent Bernoulli layers, matched here to the target mean and
    variance but {e not} to the full marginal shape — which is precisely
    the limitation the paper's marginal-distribution experiments warn
    about, and what the Markov-baseline experiment in this repository
    demonstrates. *)

type t

type layer = {
  rate : float;  (** Rate contributed while the layer is ON. *)
  eigenvalue : float;  (** Per-slot correlation decay, in [0, 1). *)
}

val create : base_rate:float -> layers:layer array -> t
(** @raise Invalid_argument on empty layers, negative rates, or
    eigenvalues outside [0, 1). *)

val fit_power_law :
  mean:float -> variance:float -> hurst:float -> horizon:int ->
  ?layers:int -> unit -> t
(** Source whose autocorrelation approximates [t^(2H-2)] for
    [t = 1 .. horizon] (lags in slots), with the given marginal mean and
    variance.  Time constants are geometric between 1 and [horizon];
    layer variance shares follow the [tau^(2H-2)] envelope (default 5
    layers).  @raise Invalid_argument on a nonpositive mean/variance,
    [hurst] outside (0.5, 1), or [horizon < 2]. *)

val layers : t -> layer array
val autocorrelation : t -> lag:int -> float
(** Exact: [sum v_k e_k^lag / sum v_k]. *)

val generate :
  t -> Lrd_rng.Rng.t -> slots:int -> slot:float -> Lrd_trace.Trace.t
(** Sample path; each layer starts in a uniform random state. *)
