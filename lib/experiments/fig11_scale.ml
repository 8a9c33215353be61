(* fig11 at production scale: certified loss vs the number of
   multiplexed sources, N = 10 .. 10^6, for a heterogeneous population
   of heavy-tailed on/off users.  Fig. 11 stops at 10 superposed MTV
   streams because brute-force convolution is O(N); the transform-domain
   engine ({!Lrd_core.Superpose}) builds each aggregate marginal in
   O(log N) spectrum multiplies (or the Edgeworth closed form once the
   CLT has taken over), so the multiplexing-gain story extends across
   five decades of N.  The population mixes three on/off classes —
   many slow sources, some medium, a few fast bursty ones — in a 6:3:1
   ratio; all grid Ns are multiples of 10, so the per-source mean (and
   with it the service rate at fixed utilization) is identical in every
   column.

   The punchline matches the paper's: multiplexing crushes loss far
   faster than any change of H, and past N ~ 10^5 the aggregate is so
   concentrated that the certified loss is exactly zero — the link is
   effectively deterministic at fixed utilization. *)

let id = "fig11_scale"

let title =
  "fig11 at scale: certified loss vs multiplexed on/off sources (N = 10 .. \
   1e6) - heterogeneous mix, utilization 0.8, B = 1 s, cutoff = inf"

let nominal_hurst = 0.8
let mean_epoch_seconds = 0.05
let utilization = 0.8
let buffer_seconds = 1.0

(* (peak rate, on-probability, population fraction): light browsers,
   medium streams, heavy bursters.  Fractions sum to 1. *)
let class_specs = [ (1.0, 0.10, 0.6); (4.0, 0.05, 0.3); (16.0, 0.02, 0.1) ]

let onoff ~peak ~p_on =
  Lrd_dist.Marginal.of_points [ (0.0, 1.0 -. p_on); (peak, p_on) ]

let population ~n =
  if n < 1 then invalid_arg "Fig11_scale.population: n must be >= 1";
  (* Largest-remainder apportionment: deterministic, exact total. *)
  let specs = Array.of_list class_specs in
  let k = Array.length specs in
  let floors =
    Array.map (fun (_, _, f) -> int_of_float (f *. float_of_int n)) specs
  in
  let rem =
    Array.mapi
      (fun i (_, _, f) -> ((f *. float_of_int n) -. float_of_int floors.(i), i))
      specs
  in
  Array.sort
    (fun (ra, ia) (rb, ib) ->
      match compare rb ra with 0 -> compare ia ib | c -> c)
    rem;
  let leftover = n - Array.fold_left ( + ) 0 floors in
  for j = 0 to leftover - 1 do
    let _, i = rem.(j mod k) in
    floors.(i) <- floors.(i) + 1
  done;
  List.map2
       (fun (peak, p_on, _) count -> (onoff ~peak ~p_on, count))
       (Array.to_list specs) (Array.to_list floors)

let source_counts ~quick =
  if quick then [| 1e1; 1e3; 1e5 |]
  else [| 1e1; 1e2; 1e3; 1e4; 1e5; 1e6 |]

let theta =
  Lrd_dist.Interarrival.theta_for_mean_epoch ~mean_epoch:mean_epoch_seconds
    ~alpha:(Lrd_core.Model.alpha_of_hurst nominal_hurst)
    ()

let marginal_for ?method_ n =
  Lrd_core.Superpose.aggregate ?method_ (population ~n)

let compute ctx =
  let quick = Data.quick ctx in
  let hursts = Sweep.hursts ~quick () in
  let ns = source_counts ~quick in
  let method_ = Data.superpose_method ctx in
  (* Aggregate marginals are shared across the Hurst rows; precomputed
     so the table is read-only by the time the sweep (possibly on the
     pool) consults it. *)
  let marginals = Hashtbl.create 8 in
  Array.iter
    (fun nf ->
      let n = int_of_float nf in
      Hashtbl.replace marginals n (marginal_for ~method_ n))
    ns;
  let params = Data.solver_params ctx in
  let cells =
    Sweep.scheduled_surface ?pool:(Data.pool ctx) ~xs:ns ~ys:hursts
      ~state:(fun nf hurst ->
        let marginal = Hashtbl.find marginals (int_of_float nf) in
        let model =
          Lrd_core.Model.of_hurst ~marginal ~hurst ~theta
            ~cutoff:Float.infinity
        in
        Lrd_core.Solver.State.create_utilization ~params model ~utilization
          ~buffer_seconds)
      ()
    |> Array.map (Array.map (fun r -> r.Lrd_core.Solver.loss))
  in
  {
    Table.title;
    xlabel = "sources";
    ylabel = "hurst";
    zlabel = "loss rate";
    xs = ns;
    ys = hursts;
    cells;
  }

(* Exact-vs-Edgeworth cross-check at the largest N the exact path still
   handles at full fidelity: both constructions of the same aggregate,
   compared on mean, std, and the 3-sigma upper tail mass (the region
   that drives loss).  The documented tolerance — 5e-4 absolute on the
   tail, means equal to 1e-12 — is pinned by the tier-1 suite. *)
let agreement_reference = 10_000

let print_agreement fmt =
  let n = agreement_reference in
  let exact = marginal_for ~method_:Lrd_core.Superpose.Exact n in
  let edge = marginal_for ~method_:Lrd_core.Superpose.Edgeworth n in
  let mean = Lrd_dist.Marginal.mean exact in
  let threshold = mean +. (3.0 *. Lrd_dist.Marginal.std exact) in
  let tail m = 1.0 -. Lrd_dist.Marginal.cdf m threshold in
  Format.fprintf fmt
    "@.exact vs edgeworth at N = %d:@.  mean      %.10g | %.10g@.  std       \
     %.6g | %.6g@.  tail(3s)  %.6g | %.6g  (|diff| = %.3g, tolerance 5e-4)@."
    n mean (Lrd_dist.Marginal.mean edge) (Lrd_dist.Marginal.std exact)
    (Lrd_dist.Marginal.std edge) (tail exact) (tail edge)
    (Float.abs (tail exact -. tail edge))

let run ctx fmt =
  Table.print_surface fmt (compute ctx);
  print_agreement fmt
