(** Histogram extraction: from a rate trace to the model's marginal
    distribution [(Pi, Lambda)].

    The paper obtains the marginal vectors "simply ... from a constant
    bin-size histogram of the traces" with 50 bins (Section III).  Each
    occupied bin becomes one atom; we place the atom at the bin's
    conditional mean rate so the extracted marginal preserves the trace
    mean exactly (bin centers would bias it by up to half a bin). *)

type t = {
  edges : float array;  (** [bins + 1] uniform bin edges. *)
  counts : int array;  (** Samples per bin. *)
  bin_means : float array;  (** Conditional mean rate per bin (0 if empty). *)
}

val of_trace : ?bins:int -> Trace.t -> t
(** Constant-bin-size histogram over [[min rate, max rate]]; default 50
    bins as in the paper.  @raise Invalid_argument if [bins <= 0]. *)

val to_marginal : t -> Lrd_dist.Marginal.t
(** One atom per occupied bin at the bin's conditional mean, weighted by
    its empirical frequency. *)

val marginal_of_trace : ?bins:int -> Trace.t -> Lrd_dist.Marginal.t
(** [to_marginal (of_trace ~bins trace)]. *)

val bin_index : t -> float -> int
(** Bin containing the given rate (clamped to the edge bins).  Used by the
    epoch run-length statistics. *)

val run_count : t -> float array -> int
(** Number of maximal runs of consecutive rates that fall in the same
    bin ([bin_index]); at least 1.  Allocates nothing per rate.
    @raise Invalid_argument on an empty array. *)
