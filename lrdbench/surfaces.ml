(* The seven scheduled-surface figures.  [figures] lists each figure's own
   [compute], the product path the timed passes run.
   [specs] rebuilds the same grids from the same public pieces, so the
   benchmark sees every cell's certified interval, can solve any cell
   cold, and can time its own [~state] closures. *)

module E = Lrd_experiments
module D = E.Data
module Sweep = E.Sweep
module Solver = Lrd_core.Solver
module Model = Lrd_core.Model
module Marginal = Lrd_dist.Marginal

let figures : (string * (D.t -> E.Table.surface)) list =
  [
    (E.Fig04.id, E.Fig04.compute);
    (E.Fig05.id, E.Fig05.compute);
    (E.Fig10.id, E.Fig10.compute);
    (E.Fig11.id, E.Fig11.compute);
    (E.Fig12.id, E.Fig12.compute);
    (E.Fig13.id, E.Fig13.compute);
    (E.Fig11_scale.id, E.Fig11_scale.compute);
  ]

type spec = {
  id : string;
  xs : float array;
  ys : float array;
  utilization : float;
  buffer_seconds : x:float -> y:float -> float;
  model : x:float -> y:float -> Model.t;
  shared : bool;
      (* One model and memoizing workload per column, shared through a
         [Workload.Cache] keyed by the column coordinate (fig4/5/12/13). *)
}

(* Fig11_scale's grid constants, which its interface does not export. *)
let scale_sources = [| 1e1; 1e2; 1e3; 1e4; 1e5; 1e6 |]
let scale_utilization = 0.8

let scale_theta =
  Lrd_dist.Interarrival.theta_for_mean_epoch ~mean_epoch:0.05
    ~alpha:(Model.alpha_of_hurst 0.8) ()

(* [aggregate] receives the time spent in the superposition engine
   building fig11_scale's aggregate marginals. *)
let specs ?(aggregate = Util.Acc.create ()) ctx =
  let quick = false in
  let buffers = Sweep.buffers ~quick () in
  let hursts = Sweep.hursts ~quick () in
  let scalings = Sweep.scalings ~quick () in
  let unbounded ~marginal ~hurst ~theta =
    Model.of_hurst ~marginal ~hurst ~theta ~cutoff:Float.infinity
  in
  let buffer_cutoff id model_of utilization =
    {
      id;
      xs = Sweep.cutoffs ~quick ();
      ys = buffers;
      utilization;
      buffer_seconds = (fun ~x:_ ~y -> y);
      model = (fun ~x ~y:_ -> model_of ~cutoff:x);
      shared = true;
    }
  in
  let buffer_scaling id base ~theta ~hurst utilization =
    {
      id;
      xs = scalings;
      ys = Sweep.buffers ~quick ~max_seconds:5.0 ();
      utilization;
      buffer_seconds = (fun ~x:_ ~y -> y);
      model =
        (fun ~x ~y:_ ->
          unbounded
            ~marginal:(Marginal.scale ~clamp:true base ~factor:x)
            ~hurst ~theta);
      shared = true;
    }
  in
  let hurst_rows id xs marginal_of ~theta utilization =
    {
      id;
      xs;
      ys = hursts;
      utilization;
      buffer_seconds = (fun ~x:_ ~y:_ -> 1.0);
      model = (fun ~x ~y -> unbounded ~marginal:(marginal_of x) ~hurst:y ~theta);
      shared = false;
    }
  in
  let mtv = D.mtv_marginal ctx and bc = D.bc_marginal ctx in
  let streams = Sweep.stream_counts ~quick () in
  let superposed =
    Array.map (fun n -> (float_of_int n, Marginal.superpose mtv ~n)) streams
  in
  let aggregates =
    Array.map
      (fun nf ->
        ( nf,
          Util.Acc.time aggregate (fun () ->
              E.Fig11_scale.marginal_for ~method_:(D.superpose_method ctx)
                (int_of_float nf)) ))
      scale_sources
  in
  let lookup table x = List.assoc x (Array.to_list table) in
  [
    buffer_cutoff E.Fig04.id
      (fun ~cutoff -> D.mtv_model ctx ~cutoff)
      D.mtv_utilization;
    buffer_cutoff E.Fig05.id (fun ~cutoff -> D.bc_model ctx ~cutoff) D.bc_utilization;
    hurst_rows E.Fig10.id scalings
      (fun a -> Marginal.scale ~clamp:true mtv ~factor:a)
      ~theta:(D.mtv_theta ctx) D.mtv_utilization;
    hurst_rows E.Fig11.id (Array.map fst superposed) (lookup superposed)
      ~theta:(D.mtv_theta ctx) D.mtv_utilization;
    buffer_scaling E.Fig12.id mtv ~theta:(D.mtv_theta ctx) ~hurst:D.mtv_hurst
      D.mtv_utilization;
    buffer_scaling E.Fig13.id bc ~theta:(D.bc_theta ctx) ~hurst:D.bc_hurst
      D.bc_utilization;
    hurst_rows E.Fig11_scale.id scale_sources (lookup aggregates)
      ~theta:scale_theta scale_utilization;
  ]

(* The figure's scheduled sweep with the benchmark's own [~state]
   closure; [state] receives the time spent inside it. *)
let run ?(state = Util.Acc.create ()) ctx spec =
  let params = D.solver_params ctx in
  let cache = Lrd_core.Workload.Cache.create () in
  let create x y =
    Util.Acc.time state (fun () ->
        let buffer_seconds = spec.buffer_seconds ~x ~y in
        let utilization = spec.utilization in
        if spec.shared then
          let key = Sweep.cell_key x in
          let model =
            Lrd_core.Workload.Cache.model cache ~key (fun () ->
                spec.model ~x ~y)
          in
          Solver.State.create_utilization ~params ~cache:(cache, key) model
            ~utilization ~buffer_seconds
        else
          Solver.State.create_utilization ~params (spec.model ~x ~y)
            ~utilization ~buffer_seconds)
  in
  Sweep.scheduled_surface ?pool:(D.pool ctx) ~policy:(D.gap_policy ctx)
    ~xs:spec.xs ~ys:spec.ys ~state:create ()

(* One cell solved the way [lrd solve] would: no cache, no warm start. *)
let solve_cold ctx spec ~x ~y =
  Solver.solve_utilization ~params:(D.solver_params ctx) (spec.model ~x ~y)
    ~utilization:spec.utilization
    ~buffer_seconds:(spec.buffer_seconds ~x ~y)

let zero_buffer_loss model ~utilization =
  Lrd_core.Workload.zero_buffer_loss
    (Lrd_core.Workload.create model
       ~service_rate:(Model.service_rate_for_utilization model ~utilization))
