(** Finite-state Markov rate modulator.

    A discrete-time Markov chain over a finite set of rates — the
    multi-state Markovian traffic model the paper's Section IV discusses.
    Combined with the correlation-horizon result, a chain that captures
    the traffic's correlation up to the horizon predicts finite-buffer
    loss as well as a self-similar model; see {!Multiscale} for a chain
    construction whose correlation follows a power law over a prescribed
    range of lags. *)

type t

val create : rates:float array -> transition:float array array -> t
(** @raise Invalid_argument unless [transition] is row-stochastic and
    square with the same dimension as [rates] (which must be nonempty). *)

val fit_from_trace : ?bins:int -> Lrd_trace.Trace.t -> t
(** Order-1 empirical bin chain: the trace is quantized into [bins]
    (default 50) histogram bins, each occupied bin becomes one state at
    its conditional mean rate, and the transition matrix is the
    empirical one-step bin-transition frequency (with a self-loop added
    to any state observed only as the final sample).  This captures both
    the full marginal and the empirical residence-time behaviour at the
    one-slot scale — the "better residence-time match" the paper wishes
    for on the Bellcore trace — but, being Markov, its correlation still
    decays geometrically beyond the fitted scale.
    @raise Invalid_argument if [bins <= 0]. *)

val size : t -> int
val rates : t -> float array
val transition : t -> float array array

val stationary : t -> float array
(** Stationary distribution by power iteration (the chains used here are
    aperiodic and irreducible by construction; convergence is checked and
    failure raises [Failure]). *)

val mean_rate : t -> float
val rate_variance : t -> float

val autocorrelation : t -> lag:int -> float
(** Exact rate autocorrelation
    [ (pi L P^lag L 1 - mu^2) / sigma^2 ] via repeated transition
    applications.  @raise Invalid_argument on a negative lag or a
    degenerate (zero-variance) chain. *)

val generate :
  t -> Lrd_rng.Rng.t -> slots:int -> slot:float -> Lrd_trace.Trace.t
(** Sample path started from the stationary distribution. *)
