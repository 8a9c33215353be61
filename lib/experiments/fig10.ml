(* Fig. 10: loss vs (Hurst parameter, marginal scaling factor) for the
   MTV-like trace at utilization 0.8, B = 1 s, infinite cutoff.  Theta is
   matched once at the nominal H (so varying H does not also change the
   short-range structure, as the paper is careful to do).  The punchline:
   halving the marginal width dwarfs any change of H. *)

let id = "fig10"

let title =
  "Fig. 10: model loss vs (Hurst, marginal scaling) - MTV, utilization 0.8, \
   B = 1 s, cutoff = inf"

let buffer_seconds = 1.0

let surface ctx ~base_marginal ~theta ~utilization ~title
    ~(transform : Lrd_dist.Marginal.t -> float -> Lrd_dist.Marginal.t)
    ~(xs : float array) ~xlabel =
  let quick = Data.quick ctx in
  let hursts = Sweep.hursts ~quick () in
  let params = Data.solver_params ctx in
  let cells =
    (* No cross-cell cache: the model differs along both axes, so no two
       cells share a workload here.  Warm-start chains still run along
       the x axis: [Marginal.scale] and [superpose] are mean-preserving,
       so the service rate — and with it the occupancy grid — is
       bitwise constant along each Hurst row. *)
    Sweep.scheduled_surface ?pool:(Data.pool ctx)
      ~policy:(Data.gap_policy ctx) ~xs ~ys:hursts
      ~state:(fun x hurst ->
        let marginal = transform base_marginal x in
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
    xlabel;
    ylabel = "hurst";
    zlabel = "loss rate";
    xs;
    ys = hursts;
    cells;
  }

let compute ctx =
  surface ctx ~base_marginal:(Data.mtv_marginal ctx) ~theta:(Data.mtv_theta ctx)
    ~utilization:Data.mtv_utilization ~title
    ~transform:(fun m a -> Lrd_dist.Marginal.scale ~clamp:true m ~factor:a)
    ~xs:(Sweep.scalings ~quick:(Data.quick ctx) ())
    ~xlabel:"scaling"

let run ctx fmt = Table.print_surface fmt (compute ctx)
