(* Fig. 12: loss vs (normalized buffer size, marginal scaling factor)
   for the MTV-like trace at utilization 0.8, cutoff = inf: narrowing
   the marginal from a = 1 to a = 0.5 lowers loss more than growing the
   buffer to 5 s — buffering cannot compete with shaping the marginal. *)

let id = "fig12"

let title =
  "Fig. 12: model loss vs (buffer, marginal scaling) - MTV, utilization 0.8, \
   cutoff = inf"

let surface ctx ~base_marginal ~theta ~hurst ~utilization ~title =
  let quick = Data.quick ctx in
  let buffers = Sweep.buffers ~quick ~max_seconds:5.0 () in
  let scalings = Sweep.scalings ~quick () in
  let params = Data.solver_params ctx in
  (* The model depends only on the scaling column, so the cache shares
     one model + workload per column across the buffer rows.
     Scaling is mean-preserving, so the buffer in work units is
     constant along each buffer row and the warm-start chains run along
     the scaling axis. *)
  let cache = Lrd_core.Workload.Cache.create () in
  let cells =
    Sweep.scheduled_surface ?pool:(Data.pool ctx)
      ~policy:(Data.gap_policy ctx) ~xs:scalings ~ys:buffers
      ~state:(fun a buffer_seconds ->
        let key = Sweep.cell_key a in
        let model =
          Lrd_core.Workload.Cache.model cache ~key (fun () ->
              let marginal =
                Lrd_dist.Marginal.scale ~clamp:true base_marginal ~factor:a
              in
              Lrd_core.Model.of_hurst ~marginal ~hurst ~theta
                ~cutoff:Float.infinity)
        in
        Lrd_core.Solver.State.create_utilization ~params ~cache:(cache, key)
          model ~utilization ~buffer_seconds)
      ()
    |> Array.map (Array.map (fun r -> r.Lrd_core.Solver.loss))
  in
  {
    Table.title;
    xlabel = "scaling";
    ylabel = "buffer_s";
    zlabel = "loss rate";
    xs = scalings;
    ys = buffers;
    cells;
  }

let compute ctx =
  surface ctx ~base_marginal:(Data.mtv_marginal ctx)
    ~theta:(Data.mtv_theta ctx) ~hurst:Data.mtv_hurst
    ~utilization:Data.mtv_utilization ~title

let run ctx fmt = Table.print_surface fmt (compute ctx)
