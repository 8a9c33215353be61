(* Benchmark harness: timings that only this harness takes.  The
   paper's figures are regenerated by `lrd experiment`, and a run is
   compared against a baseline by `lrd metrics diff`.

   [--micro] runs Bechamel micro-benchmarks: one Test.make per figure
   (timing that figure's representative computation cell) and a set of
   kernel benchmarks (FFT, convolution, solver, generators), so the
   paper's "runtime below a second on a workstation" claim is
   checkable.

   [--scaling] times full figure sweeps (fig5 and fig13 by default;
   --only picks from fig4/fig5/fig13/fig11_scale) sequentially and on
   domain pools of increasing size, reporting wall-clock seconds and
   speedup relative to the sequential run.  The heap is compacted
   before every timed cell so one pool size's GC debt never lands in
   another's measurement.

   Options:
     --quick       small traces and coarse grids (used by CI); in micro
                   mode also shrinks the Bechamel quota for smoke runs
     --only IDS    comma-separated substring filter over benchmark
                   names (micro) or scaling figures
     --micro       run the Bechamel suite
     --scaling     run the domain-scaling benchmark
     --json FILE   also write results as JSON (the BENCH_micro.json /
                   BENCH_scaling.json perf trajectories compared across
                   PRs)
     --metrics FILE, --trace FILE
                   write the run's Obs snapshot / Chrome trace journal

   With neither --micro nor --scaling, the usage is printed and the exit
   code is 2. *)

open Lrd_experiments

let quick = ref false
let only = ref []
let micro = ref false
let scaling = ref false
let json_file = ref ""
let metrics_file = ref ""
let trace_file = ref ""

let usage =
  "main.exe (--micro | --scaling) [--quick] [--only IDS] [--json FILE] \
   [--metrics FILE] [--trace FILE]"

let spec =
  [
    ("--quick", Arg.Set quick, " small traces and coarse grids");
    ( "--only",
      (* Repeated flags accumulate, tokens are whitespace-trimmed, and
         empty entries (trailing commas) are dropped, so
         [--only kernel/rfft, --only "fig12, fig13"] composes. *)
      Arg.String
        (fun s ->
          let ids =
            List.filter_map
              (fun id ->
                let id = String.trim id in
                if id = "" then None else Some id)
              (String.split_on_char ',' s)
          in
          only := !only @ ids),
      "IDS comma-separated substring filter over benchmark names or \
       scaling figures; may be repeated" );
    ("--micro", Arg.Set micro, " run Bechamel micro-benchmarks");
    ("--scaling", Arg.Set scaling, " run the domain-scaling benchmark");
    ( "--json",
      Arg.Set_string json_file,
      "FILE write micro/scaling results as JSON" );
    ( "--metrics",
      Arg.Set_string metrics_file,
      "FILE enable the Obs telemetry layer for the whole run and write \
       its JSON snapshot (solver iteration counts, pool scheduling, \
       cache traffic) to FILE at exit" );
    ( "--trace",
      Arg.Set_string trace_file,
      "FILE enable timeline tracing and write the merged event journal \
       as Chrome trace-event JSON (open in Perfetto or chrome://tracing) \
       to FILE; independent of --metrics, both can be given" );
  ]

(* When several modes run in one invocation (e.g. --micro --scaling),
   each mode's output files get the mode name spliced in before the
   extension, and the telemetry layers are reset between modes so no
   per-mode snapshot accumulates another mode's counts. *)
let mode_file ~multi mode file =
  if file = "" || not multi then file
  else Filename.remove_extension file ^ "." ^ mode ^ Filename.extension file

(* ------------------------------------------------------------------ *)
(* Bechamel micro suite.

   Each entry is a (name, test) pair so results print in this
   deterministic definition order (a Hashtbl.iter order would reshuffle
   between runs and make diffs of the output useless). *)

let micro_tests ctx =
  let open Bechamel in
  let mk name f = (name, Test.make ~name (Staged.stage f)) in
  let rng () = Lrd_rng.Rng.create ~seed:4242L in
  (* Shared ingredients, built once outside the timed closures. *)
  let mtv_model = Data.mtv_model ctx ~cutoff:10.0 in
  let bc_model = Data.bc_model ctx ~cutoff:10.0 in
  let mtv_trace = Data.mtv ctx in
  let bc_trace = Data.bellcore ctx in
  let mtv_c =
    Lrd_trace.Trace.service_rate_for_utilization mtv_trace
      ~utilization:Data.mtv_utilization
  in
  let solve ?params model ~utilization ~buffer_seconds () =
    ignore
      (Lrd_core.Solver.solve_utilization ?params model ~utilization
         ~buffer_seconds)
  in
  let sim trace ~utilization ~buffer_seconds =
    let c =
      Lrd_trace.Trace.service_rate_for_utilization trace ~utilization
    in
    let s =
      Lrd_fluidsim.Queue_sim.make ~service_rate:c
        ~buffer:(buffer_seconds *. c) ()
    in
    ignore (Lrd_fluidsim.Queue_sim.run_trace s trace)
  in
  let figure_tests =
    [
      mk "fig2/snapshots-m100" (fun () ->
          ignore
            (Lrd_core.Solver.iterate_snapshots mtv_model ~service_rate:mtv_c
               ~buffer:(1.0 *. mtv_c) ~bins:100 ~at:[ 5; 10; 30 ]));
      mk "fig3/histogram-50bin" (fun () ->
          ignore (Lrd_trace.Histogram.marginal_of_trace ~bins:50 mtv_trace));
      mk "fig4/solve-mtv-cell"
        (solve mtv_model ~utilization:Data.mtv_utilization ~buffer_seconds:0.5);
      mk "fig5/solve-bc-cell"
        (solve bc_model ~utilization:Data.bc_utilization ~buffer_seconds:0.5);
      mk "fig6/acf-512" (fun () ->
          ignore
            (Lrd_stats.Autocorr.autocorrelation mtv_trace.Lrd_trace.Trace.rates
               ~max_lag:512));
      mk "fig7/shuffle-sim-mtv" (fun () ->
          let shuffled =
            Lrd_trace.Shuffle.external_shuffle (rng ()) mtv_trace ~block:300
          in
          sim shuffled ~utilization:Data.mtv_utilization ~buffer_seconds:0.1);
      mk "fig8/shuffle-sim-bc" (fun () ->
          let shuffled =
            Lrd_trace.Shuffle.external_shuffle (rng ()) bc_trace ~block:300
          in
          sim shuffled ~utilization:Data.bc_utilization ~buffer_seconds:0.1);
      mk "fig9/solve-equalized" (fun () ->
          let model =
            Lrd_core.Model.of_hurst ~marginal:(Data.bc_marginal ctx) ~hurst:0.9
              ~theta:0.020 ~cutoff:1.0
          in
          solve model ~utilization:(2.0 /. 3.0) ~buffer_seconds:1.0 ());
      mk "fig10/solve-scaled" (fun () ->
          let marginal =
            Lrd_dist.Marginal.scale ~clamp:true (Data.mtv_marginal ctx)
              ~factor:0.5
          in
          let model =
            Lrd_core.Model.of_hurst ~marginal ~hurst:0.75
              ~theta:(Data.mtv_theta ctx) ~cutoff:Float.infinity
          in
          solve model ~utilization:Data.mtv_utilization ~buffer_seconds:1.0 ());
      mk "fig11/superpose-5" (fun () ->
          ignore (Lrd_dist.Marginal.superpose (Data.mtv_marginal ctx) ~n:5));
      mk "fig12/solve-deep-buffer"
        (solve mtv_model ~utilization:Data.mtv_utilization ~buffer_seconds:5.0);
      mk "fig13/solve-deep-buffer-bc"
        (solve bc_model ~utilization:Data.bc_utilization ~buffer_seconds:5.0);
      mk "fig14/horizon" (fun () ->
          let series =
            Array.init 20 (fun i ->
                let tc = 0.1 *. (1.5 ** float_of_int i) in
                (tc, 1e-3 *. (1.0 -. exp (-.tc))))
          in
          ignore (Lrd_core.Horizon.detect series);
          ignore
            (Lrd_core.Horizon.estimate ~buffer:10.0 ~mean_epoch:0.08
               ~epoch_std:0.3 ~rate_std:1.7 ()));
    ]
  in
  let re = Array.init 4096 (fun i -> sin (float_of_int i)) in
  let kernel = Array.init 2049 (fun i -> float_of_int (i mod 7)) in
  let signal = Array.init 1025 (fun i -> float_of_int (i mod 5)) in
  let plan =
    Lrd_numerics.Convolution.make_real_plan ~size:2048 ~kernel
      ~max_signal:1025
  in
  let exp_model =
    Lrd_core.Model.create
      ~marginal:(Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ])
      ~interarrival:(Lrd_dist.Interarrival.exponential ~mean:1.0)
  in
  (* Real-engine counterparts: the half-spectrum transform alone and the
     solver-shaped circular execute over Bigarray state (m = 1024). *)
  let rfft_plan = Lrd_numerics.Fft.Real.make_plan 4096 in
  let rfft_spec_re = Array.make 2049 0.0 in
  let rfft_spec_im = Array.make 2049 0.0 in
  let big_of len f =
    let v = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout len in
    for i = 0 to len - 1 do v.{i} <- f i done;
    v
  in
  let conv_big_signal = big_of 1025 (fun i -> float_of_int (i mod 5)) in
  let conv_big_dst = big_of 2048 (fun _ -> 0.0) in
  (* One Lindley step of both chains on a warm MTV workspace. *)
  let step m =
    let w = Lrd_core.Workload.create mtv_model ~service_rate:mtv_c in
    let ws = Lrd_core.Solver.Workspace.make w ~buffer:mtv_c ~m in
    fun () -> Lrd_core.Solver.Workspace.step ws
  in
  let kernel_tests =
    [
      mk "kernel/conv-direct-1k" (fun () ->
          ignore (Lrd_numerics.Convolution.direct signal kernel));
      mk "kernel/rfft-4096" (fun () ->
          Lrd_numerics.Fft.Real.forward_ip rfft_plan ~signal:re ~len:4096
            ~spec_re:rfft_spec_re ~spec_im:rfft_spec_im);
      mk "kernel/conv-real-1k" (fun () ->
          Lrd_numerics.Convolution.execute_real_circular plan
            (Lrd_numerics.Convolution.local_scratch plan)
            ~signal:conv_big_signal ~len:1025 ~dst:conv_big_dst);
      (* The grid most one-shot solves finish on, and a deep-buffer one. *)
      mk "kernel/step-m128" (step 128);
      mk "kernel/step-m2048" (step 2048);
      mk "kernel/solver-onoff-exp" (fun () ->
          ignore (Lrd_core.Solver.solve exp_model ~service_rate:1.25 ~buffer:2.0));
      mk "kernel/fgn-16k" (fun () ->
          ignore (Lrd_trace.Fgn.davies_harte (rng ()) ~hurst:0.8 ~n:16_384));
      mk "kernel/video-trace-16k" (fun () ->
          ignore (Lrd_trace.Video.generate_short (rng ()) ~n:16_384));
      mk "kernel/queue-sim-100k-slots" (fun () ->
          let r = rng () in
          let rates =
            Array.init 100_000 (fun _ -> Lrd_rng.Rng.float r *. 2.0)
          in
          let trace = Lrd_trace.Trace.create ~rates ~slot:0.01 in
          sim trace ~utilization:0.8 ~buffer_seconds:0.5);
      mk "kernel/erf-inv" (fun () ->
          ignore (Lrd_numerics.Special.erf_inv 0.123));
      mk "kernel/fgn-plan-16k"
        (* Counterpart of kernel/fgn-16k with the eigenvalue setup hoisted
           into a plan: one FFT per draw into a caller-held buffer. *)
        (let plan = Lrd_trace.Fgn.Plan.make ~hurst:0.8 ~n:16_384 in
         let dst = Array.make 16_384 0.0 in
         let r = rng () in
         fun () -> Lrd_trace.Fgn.Plan.draw plan r ~dst);
      mk "kernel/whittle-16k"
        (let data = Lrd_trace.Fgn.davies_harte (rng ()) ~hurst:0.8 ~n:16_384 in
         fun () -> ignore (Lrd_stats.Whittle.local_whittle data));
      mk "kernel/gph-16k"
        (let data = Lrd_trace.Fgn.davies_harte (rng ()) ~hurst:0.8 ~n:16_384 in
         fun () -> ignore (Lrd_stats.Hurst.gph data));
      mk "kernel/surrogate-16k"
        (let data = Lrd_trace.Fgn.davies_harte (rng ()) ~hurst:0.8 ~n:16_384 in
         let r = rng () in
         fun () ->
           ignore (Lrd_stats.Stationarity.phase_randomized_surrogate r data));
      mk "kernel/mginf-trace-16k" (fun () ->
          ignore (Lrd_trace.Mginf.generate (rng ()) ~slots:16_384 ~slot:0.02));
      mk "kernel/solve-detailed-occupancy" (fun () ->
          ignore
            (Lrd_core.Solver.solve_detailed exp_model ~service_rate:1.25
               ~buffer:2.0));
      (* Workload quantization at m = 4096 on the MTV marginal: survival
         grids (eqs. 21-22) and the overflow table, each on a fresh
         workload so the level cache never answers. *)
      mk "kernel/discretize-4096" (fun () ->
          let w =
            Lrd_core.Workload.create ~memoize:true mtv_model ~service_rate:mtv_c
          in
          ignore (Lrd_core.Workload.discretize w ~buffer:mtv_c ~bins:4096));
      mk "kernel/overflow-table-4096" (fun () ->
          let w =
            Lrd_core.Workload.create ~memoize:true mtv_model ~service_rate:mtv_c
          in
          ignore (Lrd_core.Workload.overflow_table w ~buffer:mtv_c ~bins:4096));
      (* One solve's set-up on the grid most one-shot solves finish on:
         quantization, dealt between the caller and the chain pair's
         helper domain, plus the plans.  Its time depends on the host's
         core count, so the row stays outside CI's hard-gated kernel/,
         sweep/ and superpose/ filters. *)
      mk "setup/workspace-make-m128" (fun () ->
          let w = Lrd_core.Workload.create mtv_model ~service_rate:mtv_c in
          ignore (Lrd_core.Solver.Workspace.make w ~buffer:mtv_c ~m:128));
      mk "kernel/ams-spectrum-n12" (fun () ->
          let sys =
            Lrd_baselines.Ams.create ~sources:12 ~on_rate:1.0 ~lambda:1.0
              ~mu:2.0 ~service_rate:5.3
          in
          ignore (Lrd_baselines.Ams.overflow_probability sys ~level:2.0));
      (* Transform-domain superposition vs the brute N-fold convolution
         ([Marginal.superpose]).  The brute baseline is measured at
         N = 100 only — it is linear in N (N - 1 convolutions onto a
         fixed support), so its 1e5 cost is the 1e2 number x1000; at
         that size the exact engine's O(log N) spectrum squarings win
         by three orders of magnitude (see EXPERIMENTS.md).  CI's
         kernel gate watches the exact/edgeworth rows. *)
      mk "superpose/brute-1e2" (fun () ->
          ignore (Lrd_dist.Marginal.superpose (Data.mtv_marginal ctx) ~n:100));
      mk "superpose/exact-1e3" (fun () ->
          ignore
            (Lrd_core.Superpose.superpose ~method_:Lrd_core.Superpose.Exact
               (Data.mtv_marginal ctx) ~n:1000));
      mk "superpose/exact-1e5" (fun () ->
          ignore
            (Lrd_core.Superpose.superpose ~method_:Lrd_core.Superpose.Exact
               (Data.mtv_marginal ctx) ~n:100_000));
      mk "superpose/edgeworth-1e5" (fun () ->
          ignore
            (Lrd_core.Superpose.superpose
               ~method_:Lrd_core.Superpose.Edgeworth (Data.mtv_marginal ctx)
               ~n:100_000));
      mk "superpose/hetero-1e4" (fun () ->
          ignore
            (Lrd_core.Superpose.aggregate
               (Fig11_scale.population ~n:10_000)));
    ]
  in
  (* Whole-surface sweeps: the fig12 grid (MTV and Bellcore marginals)
     solved cold cell by cell through [Sweep.psurface], each surface
     with its own model cache shared by the cells of a column.  CI's
     hard sweep/ gate watches these rows. *)
  let sweep_quick = Data.quick ctx in
  let sweep_buffers = Sweep.buffers ~quick:sweep_quick ~max_seconds:5.0 () in
  let sweep_scalings = Sweep.scalings ~quick:sweep_quick () in
  let sweep_params = Data.solver_params ctx in
  let sweep_marginal = Data.mtv_marginal ctx in
  let sweep_theta = Data.mtv_theta ctx in
  let sweep_model cache a =
    Lrd_core.Workload.Cache.model cache ~key:(Sweep.cell_key a) (fun () ->
        let marginal =
          Lrd_dist.Marginal.scale ~clamp:true sweep_marginal ~factor:a
        in
        Lrd_core.Model.of_hurst ~marginal ~hurst:Data.mtv_hurst
          ~theta:sweep_theta ~cutoff:Float.infinity)
  in
  let sweep_bc_marginal = Data.bc_marginal ctx in
  let sweep_bc_theta = Data.bc_theta ctx in
  let sweep_bc_model cache a =
    Lrd_core.Workload.Cache.model cache ~key:(Sweep.cell_key a) (fun () ->
        let marginal =
          Lrd_dist.Marginal.scale ~clamp:true sweep_bc_marginal ~factor:a
        in
        Lrd_core.Model.of_hurst ~marginal ~hurst:Data.bc_hurst
          ~theta:sweep_bc_theta ~cutoff:Float.infinity)
  in
  let sweep name model_of utilization =
    let cache = Lrd_core.Workload.Cache.create () in
    mk (Printf.sprintf "sweep/%s-uniform" name) (fun () ->
        ignore
          (Sweep.psurface ~xs:sweep_scalings ~ys:sweep_buffers
             ~f:(fun a buffer_seconds ->
               (Lrd_core.Solver.solve_utilization ~params:sweep_params
                  ~cache:(cache, Sweep.cell_key a) (model_of cache a)
                  ~utilization ~buffer_seconds)
                 .Lrd_core.Solver.loss)
             ()))
  in
  (* Scheduler bookkeeping: one [both] of two empty thunks, and 64 empty
     tasks on a one-worker pool.  Their times depend on the host's cores
     and wake-ups, so the rows stay outside CI's hard-gated kernel/ and
     sweep/ filters; they run last, so the crew member they leave parked
     slows no other row. *)
  let one_worker = Lrd_parallel.Pool.create ~workers:1 () in
  let pool_tests =
    [
      mk "pool/both-handoff" (fun () -> Lrd_parallel.Pool.both ignore ignore);
      mk "pool/iter-64" (fun () ->
          Lrd_parallel.Pool.iter one_worker (fun (_ : int) -> ()) 64);
    ]
  in
  figure_tests @ kernel_tests
  @ [
      sweep "fig12" sweep_model Data.mtv_utilization;
      sweep "fig13" sweep_bc_model Data.bc_utilization;
    ]
  @ pool_tests

let emit_json oc rows =
  let last = List.length rows - 1 in
  output_string oc "[\n";
  List.iteri
    (fun i (name, ns, samples) ->
      (* A failed estimate must render as null, not a literal "nan" (which
         is not JSON and would poison every downstream parse of the file). *)
      let ns_str =
        if Float.is_finite ns then Printf.sprintf "%.1f" ns else "null"
      in
      Printf.fprintf oc "  {\"name\": %S, \"ns_per_run\": %s, \"samples\": %d}%s\n"
        name ns_str samples
        (if i = last then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc

(* --only filters the micro suite and the scaling figure list
   (substring match, so "--only kernel/conv" selects the convolution
   kernels and "--only fig13" picks the Bellcore surface). *)
let matches_token name id =
  let idl = String.length id and nl = String.length name in
  let rec at i = i + idl <= nl && (String.sub name i idl = id || at (i + 1)) in
  at 0

let selected name = !only = [] || List.exists (matches_token name) !only

(* --only tokens that match nothing are reported instead of silently
   dropped: a typo'd kernel name that empties the whole suite is a hard
   error (exit 2, listing what exists), a token that merely adds nothing
   while others still match is a stderr warning. *)
let check_only_coverage ~mode ~names ~selected_any =
  if !only <> [] then begin
    let unmatched =
      List.filter
        (fun id -> not (List.exists (fun n -> matches_token n id) names))
        !only
    in
    if not selected_any then begin
      Printf.eprintf
        "%s: ERROR --only %s matched no benchmark; available names:\n" mode
        (String.concat "," !only);
      List.iter (Printf.eprintf "  %s\n") names;
      Printf.eprintf "%!";
      exit 2
    end
    else
      List.iter
        (fun id ->
          Printf.eprintf "%s: warning --only token %S matched nothing\n%!"
            mode id)
        unmatched
  end

let run_micro ~json ctx =
  let open Bechamel in
  let open Toolkit in
  (* --quick is the CI smoke configuration: a tiny quota that still
     exercises every benchmarked code path once or twice.  The sample
     floor is the minimum the OLS estimator needs for a usable fit; the
     slow solver cells (fig12/fig13 deep buffers) miss it on the first
     quota, so measurement retries with a larger time budget instead of
     silently reporting a 3-sample estimate. *)
  let base_quota = if !quick then 0.05 else 0.5 in
  let limit = if !quick then 20 else 200 in
  let min_samples = if !quick then 3 else 10 in
  let cfg quota = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None () in
  (* One analysis configuration for the whole list (it is test
     independent; rebuilding it per test was pure overhead). *)
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let all_tests = micro_tests ctx in
  let tests = List.filter (fun (name, _) -> selected name) all_tests in
  check_only_coverage ~mode:"micro" ~names:(List.map fst all_tests)
    ~selected_any:(tests <> []);
  (* Open the JSON sink up front so a bad path fails before the suite
     runs, not after minutes of benchmarking. *)
  let json_oc = if json = "" then None else Some (open_out json) in
  Printf.printf "%-32s %14s %10s\n%!" "benchmark" "ns/run" "samples";
  let measure name test quota =
    (* Start every benchmark from a settled heap.  Without this, an
       allocation-heavy benchmark leaves major-GC debt that the NEXT
       benchmark pays inside its timed region: the planned-whittle cell
       read ~30% slower than its one-shot twin purely because it ran
       right after it (see EXPERIMENTS.md), and the skew moved with the
       suite order rather than the code. *)
    Gc.compact ();
    let results = Benchmark.all (cfg quota) Instance.[ monotonic_clock ] test in
    let estimates = Analyze.all ols Instance.monotonic_clock results in
    let ns =
      match Hashtbl.find_opt estimates name with
      | Some ols_result -> (
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> t
          | _ -> Float.nan)
      | None -> Float.nan
    in
    let samples =
      match Hashtbl.find_opt results name with
      | Some b -> b.Benchmark.stats.Benchmark.samples
      | None -> 0
    in
    (ns, samples)
  in
  let rows =
    List.map
      (fun (name, test) ->
        let rec go quota retries =
          let ns, samples = measure name test quota in
          if samples >= min_samples || retries = 0 then (ns, samples)
          else go (quota *. 4.0) (retries - 1)
        in
        let ns, samples = go base_quota 3 in
        (* Flush per test so a partial table survives interrupts. *)
        Printf.printf "%-32s %14.0f %10d\n%!" name ns samples;
        (name, ns, samples))
      tests
  in
  (* Anything still under the floor after three quota escalations (64x
     the base time budget) is genuinely too slow for this harness; flag it
     rather than let a noisy ns/run pass as a measurement. *)
  List.iter
    (fun (name, _, samples) ->
      if samples < min_samples then
        Printf.printf
          "warning: %s collected only %d samples (< %d) even after quota \
           escalation; its ns/run is noisy - compare across runs with \
           care\n%!"
          name samples min_samples)
    rows;
  match json_oc with Some oc -> emit_json oc rows | None -> ()

(* ------------------------------------------------------------------ *)
(* Domain-scaling benchmark: one full figure sweep per pool size.

   fig5 is the representative surface (77 cold solver cells at full
   scale, cross-cell workload cache): big enough that the pool's
   scheduling overhead is small and every cell is pure CPU.  Each run
   uses a fresh context at the given parallelism, with the shared trace
   ingredients forced outside the timed region so only the sweep itself
   is measured. *)

(* Figures a scaling run can time; --only (substring match) picks a
   subset.  The default is fig5 and fig13: fig13's deep-buffer row
   holds its slowest cells, so it times how the pool is used once the
   short cells are done. *)
let scaling_figures =
  [
    ("fig4", fun ctx -> ignore (Fig04.compute ctx));
    ("fig5", fun ctx -> ignore (Fig05.compute ctx));
    ("fig13", fun ctx -> ignore (Fig13.compute ctx));
    ("fig11_scale", fun ctx -> ignore (Fig11_scale.compute ctx));
  ]

let time_figure ~jobs run =
  let ctx = Data.create ~jobs ~quick:!quick () in
  Fun.protect
    ~finally:(fun () -> Data.teardown ctx)
    (fun () ->
      ignore (Data.mtv_marginal ctx);
      ignore (Data.mtv_theta ctx);
      ignore (Data.bc_marginal ctx);
      ignore (Data.bc_theta ctx);
      (* Start every cell from a settled heap, for the same reason the
         micro suite compacts before each benchmark: without this the
         first pool sizes' major-GC debt is paid inside a later cell's
         timed region and the "speedup" column moves with run order. *)
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      run ctx;
      Unix.gettimeofday () -. t0)

type scaling_row = {
  row_figure : string;
  row_jobs : int;
  row_seconds : float;
  row_speedup : float;
  (* More pool domains than usable cores: the row measures
     oversubscription, not scaling.  Annotated in the JSON so a
     cross-machine comparison can drop these rows instead of trusting
     their "speedups". *)
  row_oversubscribed : bool;
}

let run_scaling ~json () =
  let jobs_list = [ 1; 2; 4; 8 ] in
  let cores = Domain.recommended_domain_count () in
  (* Scaling rows are routinely compared across machines (the committed
     BENCH_scaling.json vs a CI rerun), so a host too small to exercise
     the pool sizes must be visible both at run time and in the data:
     every JSON row carries the core count plus an "oversubscribed"
     annotation when jobs exceeds it, and cramped hosts get a stderr
     warning rather than silently recording oversubscribed "speedups".
     A 1-core host (the common CI case) annotates every multi-domain
     row. *)
  if cores = 1 then
    Printf.eprintf
      "scaling: WARNING this host has a single usable core; every jobs>1 \
       row measures oversubscription, not scaling, and is annotated \
       \"oversubscribed\" in the JSON - compare speedups against a \
       same-\"cores\" baseline only\n%!"
  else if cores < 4 then
    Printf.eprintf
      "scaling: WARNING this host has only %d usable cores; pool sizes \
       beyond that measure oversubscription, not scaling - the affected \
       rows are annotated \"oversubscribed\" in the JSON\n%!"
      cores;
  let figures =
    if !only = [] then
      List.filter (fun (name, _) -> name = "fig5" || name = "fig13")
        scaling_figures
    else List.filter (fun (name, _) -> selected name) scaling_figures
  in
  (* A warning, not the micro suite's hard error: --only applies to
     every selected mode at once, so a kernel-only filter legitimately
     empties the scaling list in a combined --scaling --micro run. *)
  if figures = [] && !only <> [] then
    Printf.eprintf
      "scaling: warning --only %s matched no scaling figure (available: %s)\n%!"
      (String.concat "," !only)
      (String.concat ", " (List.map fst scaling_figures));
  let rows =
    List.concat_map
      (fun (figure, run) ->
        Printf.printf
          "domain scaling on %s (%s grids, machine has %d cores)\n%!" figure
          (if !quick then "quick" else "full")
          cores;
        Printf.printf "%8s %12s %10s\n%!" "jobs" "seconds" "speedup";
        let timed =
          List.map (fun jobs -> (jobs, time_figure ~jobs run)) jobs_list
        in
        let baseline = match timed with (_, s) :: _ -> s | [] -> Float.nan in
        List.map
          (fun (jobs, seconds) ->
            let r =
              {
                row_figure = figure;
                row_jobs = jobs;
                row_seconds = seconds;
                row_speedup = baseline /. seconds;
                row_oversubscribed = jobs > cores;
              }
            in
            Printf.printf "%8d %12.3f %10.2f%s\n%!" r.row_jobs r.row_seconds
              r.row_speedup
              (if r.row_oversubscribed then "  (oversubscribed)" else "");
            r)
          timed)
      figures
  in
  if json <> "" then begin
    let oc = open_out json in
    let last = List.length rows - 1 in
    output_string oc "[\n";
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "  {\"figure\": %S, \"jobs\": %d, \"cores\": %d, \"seconds\": \
           %.3f, \"speedup\": %.3f, \"oversubscribed\": %b}%s\n"
          r.row_figure r.row_jobs cores r.row_seconds r.row_speedup
          r.row_oversubscribed
          (if i = last then "" else ","))
      rows;
    output_string oc "]\n";
    close_out oc
  end

(* ------------------------------------------------------------------ *)

(* Write the Obs snapshot after the benchmarked work so the JSON
   reflects the whole run (bench emits a metrics snapshot alongside its
   results when --metrics is given). *)
let write_metrics file =
  if file <> "" then begin
    let oc = open_out file in
    output_string oc (Lrd_obs.Obs.to_json (Lrd_obs.Obs.snapshot ()));
    close_out oc
  end

let write_trace file =
  if file <> "" then begin
    let oc = open_out file in
    output_string oc (Lrd_obs.Obs.Trace.to_chrome_json ());
    close_out oc
  end

let () =
  Arg.parse (Arg.align spec) (fun s -> raise (Arg.Bad ("unexpected " ^ s))) usage;
  if not (!micro || !scaling) then begin
    prerr_string (Arg.usage_string (Arg.align spec) usage);
    exit 2
  end;
  if !metrics_file <> "" then Lrd_obs.Obs.set_enabled true;
  if !trace_file <> "" then Lrd_obs.Obs.Trace.set_enabled true;
  (* Modes compose: --scaling and --micro can run in one invocation (in
     that order). *)
  let modes =
    (if !scaling then [ `Scaling ] else []) @ if !micro then [ `Micro ] else []
  in
  let multi = List.length modes > 1 in
  List.iteri
    (fun i mode ->
      if i > 0 then begin
        (* Fresh telemetry per mode: each mode's --metrics / --trace
           file stands alone instead of accumulating earlier modes. *)
        Lrd_obs.Obs.reset ();
        Lrd_obs.Obs.Trace.reset ()
      end;
      let name, run =
        match mode with
        | `Scaling -> ("scaling", fun json -> run_scaling ~json ())
        | `Micro ->
            ("micro", fun json -> run_micro ~json (Data.create ~quick:!quick ()))
      in
      let out f = mode_file ~multi name f in
      run (out !json_file);
      write_metrics (out !metrics_file);
      write_trace (out !trace_file))
    modes
