(* Fig. 4: model loss rate for the MTV-like trace as a function of
   normalized buffer size and cutoff lag, at utilization 0.8.  The two
   headline shapes: (a) for each buffer the loss flattens once the
   cutoff exceeds the correlation horizon; (b) for large cutoffs,
   growing the buffer barely reduces loss (buffer ineffectiveness). *)

let id = "fig4"
let title = "Fig. 4: model loss vs (buffer, cutoff) - MTV, utilization 0.8"

let surface ctx ~model_of ~utilization =
  let quick = Data.quick ctx in
  let buffers = Sweep.buffers ~quick () in
  let cutoffs = Sweep.cutoffs ~quick () in
  let params = Data.solver_params ctx in
  (* One model + workload per cutoff column, shared across the buffer
     rows (and across domains when a pool is set).  The cutoff is
     the x axis, so the buffer — hence the occupancy grid — is constant
     along each warm-start chain of the scheduled sweep. *)
  let cache = Lrd_core.Workload.Cache.create () in
  let cells =
    Sweep.scheduled_surface ?pool:(Data.pool ctx)
      ~policy:(Data.gap_policy ctx) ~xs:cutoffs ~ys:buffers
      ~state:(fun cutoff buffer ->
        let key = Sweep.cell_key cutoff in
        let model =
          Lrd_core.Workload.Cache.model cache ~key (fun () ->
              model_of ~cutoff)
        in
        Lrd_core.Solver.State.create_utilization ~params ~cache:(cache, key)
          model ~utilization ~buffer_seconds:buffer)
      ()
    |> Array.map (Array.map (fun r -> r.Lrd_core.Solver.loss))
  in
  {
    Table.title;
    xlabel = "cutoff_s";
    ylabel = "buffer_s";
    zlabel = "loss rate";
    xs = cutoffs;
    ys = buffers;
    cells;
  }

let compute ctx =
  {
    (surface ctx
       ~model_of:(fun ~cutoff -> Data.mtv_model ctx ~cutoff)
       ~utilization:Data.mtv_utilization)
    with
    Table.title = title;
  }

let run ctx fmt = Table.print_surface fmt (compute ctx)
