(* Output checks.  Each returns the reasons a result is wrong; an empty
   list means it passed. *)

module Solver = Lrd_core.Solver

let params = Solver.default_params

(* Allowance for rounding in comparisons between certified bounds. *)
let slack = 1e-9

let failures checks =
  List.filter_map (fun (ok, why) -> if ok then None else Some why) checks

(* Both bounds below the negligible-loss threshold: the solver reports
   zero, and the pair carries no ordering (a warm-started chain may end
   with lower > upper at the 1e-19 level). *)
let negligible (r : Solver.result) =
  Float.max r.Solver.lower_bound r.Solver.upper_bound
  < params.Solver.negligible_loss

(* A certified interval: finite with 0 <= lower <= upper (unless
   negligible), within the gap target when it claims convergence, and
   never above the closed-form zero-buffer loss (a buffer can only lower
   loss). *)
let interval ~zero_buffer_loss (r : Solver.result) =
  let l = r.Solver.lower_bound and u = r.Solver.upper_bound in
  let bounds what = Printf.sprintf "%s: [%.17g, %.17g]" what l u in
  failures
    [
      (Float.is_finite l && Float.is_finite u, bounds "interval not finite");
      (0.0 <= l && (l <= u || negligible r), bounds "not 0 <= lower <= upper");
      ( (not r.Solver.converged)
        || u < params.Solver.negligible_loss
        || u -. l <= params.Solver.tolerance *. (u +. l) /. 2.0 *. (1.0 +. slack),
        bounds "converged without meeting the gap" );
      ( l <= zero_buffer_loss *. (1.0 +. slack),
        bounds (Printf.sprintf "lower above zero-buffer loss %.17g" zero_buffer_loss) );
    ]

(* Two certified intervals for the same quantity both contain it, so
   they must intersect; a negligible one only says the loss is below the
   threshold. *)
let intersect (a : Solver.result) (b : Solver.result) =
  let below r = r.Solver.lower_bound < params.Solver.negligible_loss in
  failures
    [
      ( (if negligible a then below b
         else if negligible b then below a
         else
           Float.max a.Solver.lower_bound b.Solver.lower_bound
           <= Float.min a.Solver.upper_bound b.Solver.upper_bound *. (1.0 +. slack)),
        Printf.sprintf "disjoint intervals [%.17g, %.17g] and [%.17g, %.17g]"
          a.Solver.lower_bound a.Solver.upper_bound b.Solver.lower_bound
          b.Solver.upper_bound );
    ]

(* A figure cell (an interval midpoint, 0 when negligible) must be
   consistent with the certified interval of the same cell: within the
   interval widened by the gap target on each side. *)
let midpoint v (r : Solver.result) =
  let tol = params.Solver.tolerance in
  failures
    [
      ( Float.is_finite v
        && (v = r.Solver.loss
           || (v = 0.0 && r.Solver.lower_bound < params.Solver.negligible_loss)
           || (v >= r.Solver.lower_bound *. (1.0 -. tol)
              && v <= r.Solver.upper_bound *. (1.0 +. tol))),
        Printf.sprintf "figure cell %.17g outside [%.17g, %.17g]" v
          r.Solver.lower_bound r.Solver.upper_bound );
    ]
