(** FARIMA(0, d, 0) — fractionally integrated white noise.

    The other canonical exactly-LRD Gaussian process besides fGn: white
    noise passed through the fractional difference operator
    [(1 - B)^(-d)], [0 < d < 1/2], giving autocorrelation

    [rho(k) = prod_(i=1..k) (i - 1 + d) / (i - d) ~ k^(2d - 1)]

    so [H = d + 1/2].  Unlike fGn, FARIMA extends naturally to
    short-range ARMA structure; here the pure (0, d, 0) case is
    generated exactly by circulant embedding of the closed-form
    autocovariance — the same Davies-Harte machinery as {!Fgn}, and the
    same reusable {!Plan} on top of it. *)

val autocorrelation : d:float -> int -> float
(** Closed-form [rho(k)], [rho(0) = 1].
    @raise Invalid_argument unless [0 <= d < 0.5]. *)

val variance : d:float -> float
(** Process variance for unit innovation variance:
    [Gamma(1 - 2d) / Gamma(1 - d)^2]. *)

module Plan : sig
  type t
  (** A reusable circulant-embedding plan for one [(d, n)] pair; draws
      are bit-identical to {!generate} under the same RNG state, cost
      one FFT each and allocate nothing.  Holds mutable scratch — do not
      share across domains; see {!domain_plan}. *)

  val make : d:float -> n:int -> t
  (** @raise Invalid_argument unless [0 <= d < 0.5] and [n > 0]. *)

  val draw : t -> Lrd_rng.Rng.t -> dst:float array -> unit
  val generate : t -> Lrd_rng.Rng.t -> float array
end

val domain_plan : d:float -> n:int -> Plan.t
(** The calling domain's cached plan for [(d, n)], built on first use
    (no cross-domain sharing, so it composes with {!Lrd_parallel.Pool}
    without locks). *)

val generate : Lrd_rng.Rng.t -> d:float -> n:int -> float array
(** [n] samples of zero-mean FARIMA(0, d, 0) with unit innovation
    variance, by circulant embedding.  Internally draws from
    {!domain_plan}, so repeated calls at one [(d, n)] skip the
    eigenvalue setup; the output is bit-identical either way.
    @raise Invalid_argument unless [0 <= d < 0.5] and [n > 0]. *)
