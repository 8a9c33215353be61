(** Small dense linear algebra: LU decomposition with partial pivoting.

    Sized for the spectral fluid-queue solver (systems of a few dozen
    unknowns), not for large-scale numerics. *)

val solve : float array array -> float array -> float array
(** [solve a b] solves [a x = b] by LU with partial pivoting.  [a] is
    row-major and is not modified.  @raise Invalid_argument on
    non-square or mismatched inputs; @raise Failure on a (numerically)
    singular matrix. *)

val mat_vec : float array array -> float array -> float array
(** Matrix-vector product. *)

val residual_norm : float array array -> float array -> float array -> float
(** [residual_norm a x b] is [max_i |(a x - b)_i|] — a cheap solution
    check. *)
