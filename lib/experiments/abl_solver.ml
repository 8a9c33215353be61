(* Ablation: warm restart across grid refinements (paper footnote 3) vs
   cold restart.  Both variants must agree on the loss value; the
   interesting output is the iteration count / wall time — which is why
   this ablation deliberately ignores the context's domain pool: the
   per-variant timings would be polluted by contending domains.  Each
   solve still steps its two chains on two domains, as every one-shot
   solve does.  The table prints only deterministic columns; each
   variant's wall seconds go to the gauge
   [experiment/abl-solver/<variant>/seconds] ([--metrics]). *)

let id = "abl-solver"
let title = "Ablation: solver warm vs cold restart"

let run ctx fmt =
  let model = Data.mtv_model ctx ~cutoff:10.0 in
  (* A hard instance: high utilization and a deep buffer make the gap
     stall at coarse grids, so the refinement machinery actually runs. *)
  let utilization = 0.9 in
  let buffer_seconds = if Data.quick ctx then 1.0 else 2.0 in
  let base = { (Data.solver_params ctx) with Lrd_core.Solver.max_bins = 2048 } in
  let variants =
    [
      ("warm+auto", base);
      ("cold+auto", { base with Lrd_core.Solver.warm_restart = false });
    ]
  in
  Table.heading fmt title;
  Format.fprintf fmt "%12s %12s %10s %8s %8s@." "variant" "loss"
    "iterations" "bins" "refines";
  List.iter
    (fun (name, params) ->
      let t0 = Unix.gettimeofday () in
      let r =
        Lrd_core.Solver.solve_utilization ~params model ~utilization
          ~buffer_seconds
      in
      if Lrd_obs.Obs.enabled () then
        Lrd_obs.Obs.Gauge.set
          (Lrd_obs.Obs.Gauge.make ("experiment/" ^ id ^ "/" ^ name ^ "/seconds"))
          (Unix.gettimeofday () -. t0);
      Format.fprintf fmt "%12s %12s %10d %8d %8d@." name
        (Table.cell_value r.Lrd_core.Solver.loss)
        r.Lrd_core.Solver.iterations r.Lrd_core.Solver.bins
        r.Lrd_core.Solver.refinements)
    variants;
  Format.fprintf fmt
    "(both variants must agree on the loss; warm restart pays in \
     iterations re-used)@."
