(** Descriptive statistics for trace analysis and test assertions. *)

val mean : float array -> float
val variance : float array -> float
(** Population variance (divides by [n]). *)

val sample_variance : float array -> float
(** Unbiased sample variance (divides by [n - 1]).
    @raise Invalid_argument if the array has fewer than two elements. *)

val std : float array -> float

val quantile : float array -> p:float -> float
(** Linear-interpolation quantile of the sorted data, [p] in [0, 1].
    Does not modify the input. *)

val linear_regression : x:float array -> y:float array -> float * float
(** Ordinary least squares [(slope, intercept)] of [y] on [x].
    @raise Invalid_argument on mismatched lengths or fewer than two
    points. *)

val weighted_linear_regression :
  x:float array -> y:float array -> w:float array -> float * float
(** Weighted least squares with nonnegative weights (typically inverse
    variances).  @raise Invalid_argument on mismatched lengths, fewer
    than two points with positive weight, or degenerate abscissae. *)
