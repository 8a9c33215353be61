(** Block shuffling of traces (paper Section III, Fig. 6).

    External shuffling divides a trace into blocks of equal length and
    permutes the blocks uniformly at random, leaving each block's interior
    untouched: correlation at lags shorter than a block survives,
    correlation beyond a block is destroyed.  It is the trace-driven
    analogue of the model's cutoff lag [T_c] and drives the simulations of
    Figs. 7, 8 and 14.

    Internal shuffling (the dual, from Erramilli et al.) permutes samples
    within each block and keeps the block order, destroying short-lag
    structure while preserving long-lag structure.  It is provided as the
    ablation counterpart. *)

val external_shuffle :
  Lrd_rng.Rng.t -> Trace.t -> block:int -> Trace.t
(** Permutes whole blocks of [block] samples.  A trailing partial block is
    dropped so every shuffled position participates (the paper's traces
    are 5-6 orders of magnitude longer than a block, so the truncation is
    immaterial).  [block >= length] returns the trace unchanged
    (truncated to a single block).  @raise Invalid_argument if
    [block <= 0]. *)

val internal_shuffle :
  Lrd_rng.Rng.t -> Trace.t -> block:int -> Trace.t
(** Permutes samples uniformly within each block, preserving block order.
    The trailing partial block is shuffled in place as well. *)
