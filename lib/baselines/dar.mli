(** Discrete autoregressive DAR(1) rate process: the classic parsimonious
    Markovian baseline.

    At each slot the rate is kept with probability [rho] and redrawn from
    the marginal otherwise, giving exactly geometric autocorrelation
    [rho^k] and an arbitrary marginal — the textbook short-range
    dependent model the paper contrasts with self-similar sources.  Its
    correlation becomes negligible beyond roughly
    [log eps / log rho] slots, so a DAR(1) matched to the traffic's
    short-lag correlation is exactly the kind of "model capturing
    correlation up to the correlation horizon" that the paper argues is
    sufficient for finite-buffer loss prediction. *)

type t

val create : marginal:Lrd_dist.Marginal.t -> rho:float -> t
(** @raise Invalid_argument unless [0 <= rho < 1]. *)

val of_lag1 : marginal:Lrd_dist.Marginal.t -> lag1:float -> t
(** DAR(1) whose lag-1 autocorrelation equals [lag1]. *)

val rho : t -> float
val marginal : t -> Lrd_dist.Marginal.t

val autocorrelation : t -> lag:int -> float
(** Exact: [rho^lag]. *)


val generate : t -> Lrd_rng.Rng.t -> slots:int -> slot:float -> Lrd_trace.Trace.t
(** Sample path binned at the given slot length. *)
