(** Small array utilities shared across the libraries. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n >= 2] evenly spaced points from [a] to [b]
    inclusive.  @raise Invalid_argument if [n < 2]. *)

val logspace : float -> float -> int -> float array
(** [logspace a b n] is [n] points geometrically spaced from [a] to [b];
    both endpoints must be positive. *)

val sum : float array -> float
(** Compensated sum (alias for {!Summation.kahan}). *)

val mean : float array -> float
(** Arithmetic mean.  @raise Invalid_argument on empty input. *)

val variance : float array -> float
(** Population variance (divides by [n]).
    @raise Invalid_argument on empty input. *)

val min_element : float array -> float
val max_element : float array -> float

val normalize : float array -> unit
(** Scales the array in place so it sums to 1.
    @raise Invalid_argument if the sum is not positive. *)
