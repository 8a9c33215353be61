(** Scalar root finding, used e.g. to match the Pareto scale parameter
    theta to an empirical mean epoch duration (paper eq. 25) and to invert
    distribution functions without closed-form quantiles. *)

val bisection :
  f:(float -> float) -> lo:float -> hi:float -> ?eps:float -> unit -> float
(** Root of [f] on a bracketing interval ([f lo] and [f hi] of opposite
    signs).  @raise Invalid_argument if the interval does not bracket. *)
