(** Extension: Fig. 11 pushed to production scale — certified loss vs
    the number of multiplexed sources, N = 10 .. 10^6, for a
    heterogeneous population of heavy-tailed on/off users.

    Aggregate marginals come from the transform-domain superposition
    engine ({!Lrd_core.Superpose}): O(log N) half-spectrum multiplies
    on the exact path, the Edgeworth closed form once the cost model
    flips ([--superpose] picks; default [auto]).  Each aggregate feeds
    the cold solver cells of {!Sweep.scheduled_surface}, so every
    reported loss is a certified interval midpoint, exactly like the
    in-paper figures.  The run output ends with an exact-vs-Edgeworth
    agreement block (mean, std, 3-sigma tail) at a reference N. *)

val id : string
val title : string

val population : n:int -> (Lrd_dist.Marginal.t * int) list
(** The figure's heterogeneous population at total size [n]: three
    on/off classes (light/medium/heavy) apportioned 6:3:1 by largest
    remainder — deterministic, counts sum to [n] exactly.  Exposed for
    the bench harness and tests.
    @raise Invalid_argument when [n < 1]. *)

val marginal_for : ?method_:Lrd_core.Superpose.method_ -> int -> Lrd_dist.Marginal.t
(** Aggregate marginal of {!population} at size [n] via
    {!Lrd_core.Superpose.aggregate}. *)

val compute : Data.t -> Table.surface
val run : Data.t -> Format.formatter -> unit
