(** Interarrival-time (epoch-length) laws for the modulated fluid model.

    The paper's source model redraws the fluid rate at the points of a
    renewal process; the epoch length [T] determines both the correlation
    structure of the rate process (via the residual-life ccdf, eq. 5) and
    the increment distribution [W = T (lambda - c)] driving the queue.

    Everything the solver needs from a law is captured here:
    - strict and weak survival functions ([Pr{T > t}] and [Pr{T >= t}]),
      both required because laws with atoms (the truncated Pareto has one
      at the cutoff) must place atom mass on the correct side of each
      discretization boundary for the floor/ceiling bound construction
      (eqs. 21-22) to remain a true bound;
    - the integrated survival [int_a^inf Pr{T > t} dt], which gives the
      generic expected-overflow term
      [E[(T d - y)^+] = d * survival_integral (y / d)] for [d > 0];
    - batch forms of both over an array of points, which the solver's
      quantization calls once per marginal atom and block of grid points.
      It may call them on two domains at once, each on its own point and
      output arrays, so a law's kernels must not share mutable state;
    - the mean (eq. 25 for the truncated Pareto) and variance (used by the
      correlation-horizon estimate, eq. 26).

    The type is a first-class record so any law — the paper's truncated
    Pareto or an SRD stand-in — plugs into the same solver, which is
    exactly the paper's point: any model capturing correlation up to the
    correlation horizon predicts the same loss. *)

type t = {
  name : string;  (** Human-readable description for reports. *)
  mean : float;  (** E[T]. *)
  variance : float;  (** Var[T]. *)
  survival_gt : float -> float;  (** [Pr{T > t}]; 1 for [t < 0]. *)
  survival_ge : float -> float;  (** [Pr{T >= t}]; 1 for [t <= 0]. *)
  survival_integral : float -> float;
      (** [fun a -> int_a^inf Pr{T > t} dt]; equals [mean] at [a <= 0]. *)
  survival_grid :
    n:int -> float array -> ge:float array -> gt:float array -> unit;
      (** [survival_grid ~n q ~ge ~gt] sets [ge.(k)] to [survival_ge q.(k)]
          and [gt.(k)] to [survival_gt q.(k)] for [k < n], bit for bit.
          The truncated Pareto pays one [pow] per point for both. *)
  survival_integral_grid : n:int -> float array -> float array -> unit;
      (** [survival_integral_grid ~n a out] sets [out.(k)] to
          [survival_integral a.(k)] for [k < n], bit for bit. *)
  max_support : float option;  (** Supremum of the support if finite. *)
  sample : Lrd_rng.Rng.t -> float;  (** Random variate. *)
}

val truncated_pareto : theta:float -> alpha:float -> cutoff:float -> t
(** The paper's law (eq. 6): ccdf [((t + theta)/theta)^-alpha] for
    [t < cutoff], zero beyond, hence an atom of mass
    [((cutoff + theta)/theta)^-alpha] at [cutoff] (equivalently,
    [T = min(Pareto(theta, alpha), cutoff)]).  [cutoff = infinity] gives
    the pure Pareto law, asymptotically self-similar with
    [H = (3 - alpha)/2]; then [alpha > 1] is required for a finite mean
    and the variance is infinite for [alpha <= 2].
    @raise Invalid_argument unless [theta > 0], [alpha > 1] (for finite
    mean when [cutoff] is infinite; any [alpha > 0] with finite cutoff),
    and [cutoff > 0]. *)

val exponential : mean:float -> t
(** Memoryless epochs: the natural SRD baseline (geometric-like decay of
    rate correlation). *)

val deterministic : value:float -> t
(** Constant epochs. *)

val uniform : lo:float -> hi:float -> t
(** Uniform on [[lo, hi]], [0 <= lo < hi]. *)

val weibull : shape:float -> scale:float -> t
(** Weibull epochs; stretched-exponential correlation decay.  The
    survival integral is evaluated by adaptive quadrature. *)

val gamma : shape:float -> scale:float -> t
(** Gamma epochs (Erlang-like for integer shapes); survival via the
    regularized incomplete gamma function, survival integral in closed
    form. *)

val lognormal : mu:float -> sigma:float -> t
(** Lognormal epochs — moderately heavy-tailed but with all moments
    finite; survival integral in closed form (the Black-Scholes partial
    expectation). *)

val hyperexponential : weights:float array -> means:float array -> t
(** Mixture of exponentials: phase [i] is chosen with probability
    [weights.(i)] and the epoch is exponential with mean [means.(i)].
    With geometrically spread means this is the classical light-tailed
    stand-in for a power law over a finite range of scales — the
    epoch-level counterpart of the multi-time-scale Markov chain.
    Everything is in closed form.  @raise Invalid_argument on empty or
    mismatched inputs, nonpositive means, or weights that do not form a
    (normalizable) positive vector. *)

val theta_for_mean_epoch :
  mean_epoch:float -> alpha:float -> ?cutoff:float -> unit -> float
(** Solves eq. 25 for [theta]: the Pareto scale such that the truncated
    Pareto with the given [alpha] and [cutoff] (default infinity) has mean
    epoch duration [mean_epoch].  With an infinite cutoff this is
    [theta = mean_epoch * (alpha - 1)] in closed form; with a finite
    cutoff the equation is solved numerically. *)

val mean_given_cutoff : theta:float -> alpha:float -> cutoff:float -> float
(** Eq. 25: [E[T] = theta/(alpha-1) (1 - (cutoff/theta + 1)^(1-alpha))].
    Accepts [cutoff = infinity]. *)
