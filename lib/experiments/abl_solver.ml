(* Ablation: solver engineering choices.  (a) warm restart across grid
   refinements (paper footnote 3) vs cold restart; (b) FFT vs direct
   convolution.  Both variants must agree on the loss value; the
   interesting output is the iteration count / wall time — which is why
   this ablation deliberately ignores the context's domain pool: the
   per-variant timings would be polluted by contending domains.  Each
   solve still steps its two chains on two domains, as every one-shot
   solve does. *)

let id = "abl-solver"
let title = "Ablation: solver warm restart and convolution strategy"

let run ctx fmt =
  let model = Data.mtv_model ctx ~cutoff:10.0 in
  (* A hard instance: high utilization and a deep buffer make the gap
     stall at coarse grids, so the refinement machinery actually runs
     (and the direct-convolution variant pays the quadratic price).
     The bins cap keeps the direct variant from taking minutes. *)
  let utilization = 0.9 in
  let buffer_seconds = if Data.quick ctx then 1.0 else 2.0 in
  let base = { (Data.solver_params ctx) with Lrd_core.Solver.max_bins = 2048 } in
  let variants =
    [
      ("warm+auto", base);
      ("cold+auto", { base with Lrd_core.Solver.warm_restart = false });
      ("warm+fft", { base with Lrd_core.Solver.convolution = `Fft });
      ("warm+direct", { base with Lrd_core.Solver.convolution = `Direct });
    ]
  in
  Table.heading fmt title;
  Format.fprintf fmt "%12s %12s %10s %8s %8s %10s@." "variant" "loss"
    "iterations" "bins" "refines" "seconds";
  List.iter
    (fun (name, params) ->
      let t0 = Unix.gettimeofday () in
      let r =
        Lrd_core.Solver.solve_utilization ~params model ~utilization
          ~buffer_seconds
      in
      let dt = Unix.gettimeofday () -. t0 in
      Format.fprintf fmt "%12s %12s %10d %8d %8d %10.3f@." name
        (Table.cell_value r.Lrd_core.Solver.loss)
        r.Lrd_core.Solver.iterations r.Lrd_core.Solver.bins
        r.Lrd_core.Solver.refinements dt)
    variants;
  Format.fprintf fmt
    "(all variants must agree on the loss; warm restart and FFT pay in \
     iterations re-used and per-iteration cost)@."
