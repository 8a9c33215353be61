(** Planned circulant-embedding synthesis of stationary Gaussian
    sequences (Davies & Harte), the engine under {!Fgn} and {!Farima}.

    A plan for [(autocovariance, n)] precomputes everything that does
    not depend on the random draw: the circulant embedding of the
    covariance into size [m = next_pow2 (2 n)], its eigenvalues (one
    real transform), the per-bin scale factors [sqrt (lambda_k / m)] /
    [sqrt (lambda_k / 2m)], the real-input plan for size [m], and the
    half-spectrum scratch pair.  {!draw} then costs one Gaussian fill
    plus ONE half-size complex transform
    ({!Lrd_numerics.Fft.Real.synthesize_ip} of the Hermitian spectrum)
    and allocates no arrays — against two full-size transforms, the
    eigenvalue setup and six fresh length-[m] arrays for every unplanned
    call.

    Determinism contract: a draw consumes exactly the same RNG stream,
    in the same order, as the historical one-shot generators, and all
    generator entry points (planned and unplanned) route through this
    module, so outputs are identical under equal RNG states (enforced by
    the [test_trace] property tests).  Plans hold mutable scratch: share
    them across domains only through {!Lrd_parallel.Arena}. *)

type t
(** A reusable synthesis plan.  Not domain-safe; see above. *)

val embedding_half : n:int -> int
(** [embedding_half ~n] is [next_pow2 (2 n) / 2], the largest lag whose
    autocovariance the embedding of an [n]-sample draw needs.
    @raise Invalid_argument if [n <= 0]. *)

val make : name:string -> acv:(int -> float) -> tol:float -> n:int -> t
(** [make ~name ~acv ~tol ~n] plans [n]-sample draws from the
    zero-mean stationary Gaussian process with autocovariance [acv]
    (queried at lags [0 .. embedding_half ~n]).  Circulant eigenvalues
    below [-tol] raise [Invalid_argument (name ^ ": embedding not
    nonnegative definite")]; tiny negative rounding artifacts in
    [(-tol, 0)] are clamped to zero, exactly as the one-shot
    generators always did.
    @raise Invalid_argument if [n <= 0]. *)

val draw : t -> Lrd_rng.Rng.t -> dst:float array -> unit
(** [draw t rng ~dst] writes the plan's [n] fresh samples into the prefix
    of [dst] using one FFT and no array allocation.
    @raise Invalid_argument if [dst] is shorter than [n]. *)

val generate : t -> Lrd_rng.Rng.t -> float array
(** {!draw} into a fresh array of [n] samples. *)
