(* Integration tests over the experiment layer: every registry entry
   must execute in quick mode, and the headline quantitative shapes of
   the paper's evaluation must hold on the computed surfaces. *)

open Lrd_experiments

let ctx = lazy (Data.create ~quick:true ())

(* Substring search, used to check rendered tables. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let render f =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table rendering *)

let test_table_axis_value () =
  Alcotest.(check string) "inf" "inf" (Table.axis_value Float.infinity);
  Alcotest.(check string) "plain" "0.5" (Table.axis_value 0.5);
  Alcotest.(check string) "large" "1.23e+04" (Table.axis_value 12345.0)

let test_table_cell_value () =
  Alcotest.(check string) "zero" "0" (Table.cell_value 0.0);
  Alcotest.(check string) "sci" "1.230e-04" (Table.cell_value 1.23e-4)

let test_table_surface_renders () =
  let s =
    {
      Table.title = "surf";
      xlabel = "cut";
      ylabel = "buf";
      zlabel = "loss";
      xs = [| 1.0; Float.infinity |];
      ys = [| 0.5 |];
      cells = [| [| 1e-3; 2e-3 |] |];
    }
  in
  let out = render (fun fmt -> Table.print_surface fmt s) in
  Alcotest.(check bool) "has inf column" true (contains out "inf");
  Alcotest.(check bool) "has cell" true (contains out "2.000e-03")

(* ------------------------------------------------------------------ *)
(* Data context *)

let test_data_traces_have_expected_scale () =
  let ctx = Lazy.force ctx in
  let mtv = Data.mtv ctx and bc = Data.bellcore ctx in
  Alcotest.(check bool) "mtv mean near 9.52" true
    (Float.abs (Lrd_trace.Trace.mean mtv -. 9.5222) < 0.5);
  Alcotest.(check bool) "bc mean near 1.5" true
    (Float.abs (Lrd_trace.Trace.mean bc -. 1.5) < 0.5)

let test_data_marginals_are_50_bin () =
  let ctx = Lazy.force ctx in
  Alcotest.(check bool) "mtv atoms" true
    (Lrd_dist.Marginal.size (Data.mtv_marginal ctx) <= 50);
  Alcotest.(check bool) "bc atoms" true
    (Lrd_dist.Marginal.size (Data.bc_marginal ctx) <= 50)

let test_data_theta_matches_epoch () =
  let ctx = Lazy.force ctx in
  (* Eq. 25 at infinite cutoff: theta = epoch * (alpha - 1). *)
  let alpha = Lrd_core.Model.alpha_of_hurst Data.mtv_hurst in
  let expected = Data.mtv_mean_epoch ctx *. (alpha -. 1.0) in
  Alcotest.(check (float 1e-9)) "theta" expected (Data.mtv_theta ctx)

let test_data_model_construction () =
  let ctx = Lazy.force ctx in
  let m = Data.mtv_model ctx ~cutoff:10.0 in
  Alcotest.(check bool) "mean rate" true
    (Float.abs
       (Lrd_core.Model.mean_rate m -. Lrd_trace.Trace.mean (Data.mtv ctx))
    < 1e-6);
  (* The covariance must vanish beyond the requested cutoff. *)
  Alcotest.(check (float 1e-12)) "cutoff respected" 0.0
    (Lrd_core.Model.covariance m 10.5)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_has_all_figures () =
  let expected =
    [
      "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
      "fig10"; "fig11"; "fig12"; "fig13"; "fig14";
    ]
  in
  List.iter
    (fun id ->
      match Registry.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "missing %s" id)
    expected;
  Alcotest.(check int) "figure count" 13 (List.length Registry.figures);
  Alcotest.(check bool) "has ablations" true
    (List.length Registry.ablations >= 4);
  Alcotest.(check bool) "has extensions" true
    (List.length Registry.extensions >= 5);
  (* Ids are unique across the whole registry. *)
  let ids = List.map (fun e -> e.Registry.id) Registry.all in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_registry_rejects_unknown_id () =
  let ctx = Lazy.force ctx in
  Alcotest.check_raises "unknown"
    (Invalid_argument "Registry.run: unknown id \"nope\"") (fun () ->
      Registry.run ~only:[ "nope" ] ctx Format.str_formatter)

let run_entry id =
  let ctx = Lazy.force ctx in
  match Registry.find id with
  | None -> Alcotest.failf "no entry %s" id
  | Some e -> render (fun fmt -> e.Registry.run ctx fmt)

(* Each figure executes and emits its title. *)
let test_every_entry_runs () =
  List.iter
    (fun e ->
      let out = run_entry e.Registry.id in
      if String.length out < 40 then
        Alcotest.failf "%s produced no meaningful output" e.Registry.id)
    Registry.all

(* ------------------------------------------------------------------ *)
(* Headline shapes of the evaluation *)

let test_fig4_correlation_horizon_shape () =
  let ctx = Lazy.force ctx in
  let s = Fig04.compute ctx in
  let n_cut = Array.length s.Table.xs in
  Array.iteri
    (fun row _buffer ->
      let cells = s.Table.cells.(row) in
      (* Loss grows (weakly) with the cutoff... *)
      for col = 1 to n_cut - 1 do
        if cells.(col) < cells.(col - 1) *. 0.8 -. 1e-12 then
          Alcotest.failf "row %d: loss dropped sharply with cutoff" row
      done;
      (* ... and the step from the largest finite cutoff to infinity is
         small relative to the step from the smallest cutoff (the
         correlation horizon). *)
      let lo = cells.(0) and hi = cells.(n_cut - 1) in
      let penultimate = cells.(n_cut - 2) in
      if hi > 0.0 && penultimate > 0.0 then begin
        let tail_ratio = hi /. penultimate in
        let full_ratio = if lo > 0.0 then hi /. lo else Float.infinity in
        if not (tail_ratio < full_ratio || full_ratio < 2.0) then
          Alcotest.failf "row %d: no flattening (tail %.2f full %.2f)" row
            tail_ratio full_ratio
      end)
    s.Table.ys

let test_fig4_loss_decreases_with_buffer () =
  let ctx = Lazy.force ctx in
  let s = Fig04.compute ctx in
  Array.iteri
    (fun col _ ->
      for row = 1 to Array.length s.Table.ys - 1 do
        if
          s.Table.cells.(row).(col)
          > s.Table.cells.(row - 1).(col) *. 1.2 +. 1e-12
        then Alcotest.failf "col %d: loss grew with buffer" col
      done)
    s.Table.xs

let test_fig9_marginal_dominates () =
  let ctx = Lazy.force ctx in
  let _, mtv, bc = Fig09.compute ctx in
  (* At the largest cutoff the Bellcore marginal must lose orders of
     magnitude more than the video marginal (paper: Fig. 9). *)
  let n = Array.length mtv in
  Alcotest.(check bool) "orders of magnitude" true
    (bc.(n - 1) > 10.0 *. mtv.(n - 1))

let test_fig10_scaling_beats_hurst () =
  let ctx = Lazy.force ctx in
  let s = Fig10.compute ctx in
  (* Across the scaling axis (fix middle H row): max/min spans > 10x.
     Across the H axis (fix scaling = 1 column): span is smaller. *)
  let mid_row = Array.length s.Table.ys / 2 in
  let row = s.Table.cells.(mid_row) in
  let scaling_span =
    Lrd_numerics.Array_ops.max_element row
    /. Float.max 1e-300 (Lrd_numerics.Array_ops.min_element row)
  in
  (* Column where scaling = 1. *)
  let col_one = ref 0 in
  Array.iteri (fun i x -> if x = 1.0 then col_one := i) s.Table.xs;
  let col = Array.map (fun r -> r.(!col_one)) s.Table.cells in
  let hurst_span =
    Lrd_numerics.Array_ops.max_element col
    /. Float.max 1e-300 (Lrd_numerics.Array_ops.min_element col)
  in
  Alcotest.(check bool) "scaling spans more than H" true
    (scaling_span > hurst_span)

let test_fig11_superposition_reduces_loss () =
  let ctx = Lazy.force ctx in
  let s = Fig11.compute ctx in
  Array.iteri
    (fun row _ ->
      let cells = s.Table.cells.(row) in
      let n = Array.length cells in
      (* More streams, (weakly) less loss; the largest stream count cuts
         loss by at least an order of magnitude. *)
      Alcotest.(check bool) "endpoint drop" true
        (cells.(n - 1) < cells.(0) /. 10.0))
    s.Table.ys

let test_fig12_scaling_beats_buffering () =
  let ctx = Lazy.force ctx in
  let s = Fig12.compute ctx in
  (* Narrowing a = 1 -> 0.5 at the smallest buffer beats growing the
     buffer to its maximum at a = 1 (paper Section III, third set). *)
  let col_of v =
    let c = ref (-1) in
    Array.iteri (fun i x -> if x = v then c := i) s.Table.xs;
    !c
  in
  let a_half = col_of 0.5 and a_one = col_of 1.0 in
  let first_row = 0 and last_row = Array.length s.Table.ys - 1 in
  let narrow_small_buffer = s.Table.cells.(first_row).(a_half) in
  let wide_big_buffer = s.Table.cells.(last_row).(a_one) in
  Alcotest.(check bool) "marginal beats buffer" true
    (narrow_small_buffer < wide_big_buffer)

let test_fig5_bellcore_same_shapes () =
  let ctx = Lazy.force ctx in
  let s = Fig05.compute ctx in
  (* Loss grows (weakly) in the cutoff and falls (weakly) in the buffer. *)
  Array.iteri
    (fun row _ ->
      for col = 1 to Array.length s.Table.xs - 1 do
        if s.Table.cells.(row).(col) < s.Table.cells.(row).(col - 1) *. 0.8
        then Alcotest.failf "row %d col %d: dropped with cutoff" row col
      done)
    s.Table.ys;
  Array.iteri
    (fun col _ ->
      for row = 1 to Array.length s.Table.ys - 1 do
        if
          s.Table.cells.(row).(col)
          > s.Table.cells.(row - 1).(col) *. 1.2 +. 1e-12
        then Alcotest.failf "col %d: grew with buffer" col
      done)
    s.Table.xs

let test_fig13_bellcore_scaling_beats_buffering () =
  let ctx = Lazy.force ctx in
  let s = Fig13.compute ctx in
  let col_of v =
    let c = ref (-1) in
    Array.iteri (fun i x -> if x = v then c := i) s.Table.xs;
    !c
  in
  let a_half = col_of 0.5 and a_one = col_of 1.0 in
  let narrow_small = s.Table.cells.(0).(a_half) in
  let wide_big = s.Table.cells.(Array.length s.Table.ys - 1).(a_one) in
  Alcotest.(check bool) "marginal beats buffer (BC)" true
    (narrow_small < wide_big)

let test_fig11_loss_monotone_in_streams () =
  let ctx = Lazy.force ctx in
  let s = Fig11.compute ctx in
  Array.iteri
    (fun row _ ->
      let cells = s.Table.cells.(row) in
      for col = 1 to Array.length cells - 1 do
        if cells.(col) > cells.(col - 1) *. 1.2 +. 1e-12 then
          Alcotest.failf "row %d: loss grew with streams" row
      done)
    s.Table.ys

let test_fig9_series_monotone_in_cutoff () =
  let ctx = Lazy.force ctx in
  let _, mtv, bc = Fig09.compute ctx in
  let check name series =
    let n = Array.length series in
    for i = 1 to n - 1 do
      if series.(i) < series.(i - 1) *. 0.8 -. 1e-15 then
        Alcotest.failf "%s dropped at %d" name i
    done
  in
  check "mtv" mtv;
  check "bellcore" bc

let test_fig7_simulation_flattens_in_cutoff () =
  let ctx = Lazy.force ctx in
  let s = Fig07.compute ctx in
  (* At the smallest buffer (where a quick trace still sees losses), the
     loss at the largest finite block is within a small factor of the
     unshuffled loss. *)
  let row = s.Table.cells.(0) in
  let n = Array.length row in
  let unshuffled = row.(n - 1) in
  Alcotest.(check bool) "nonzero at smallest buffer" true (unshuffled > 0.0);
  let largest_finite = row.(n - 2) in
  Alcotest.(check bool) "flattened" true
    (largest_finite > unshuffled /. 3.0
    && largest_finite < unshuffled *. 3.0)

(* ------------------------------------------------------------------ *)
(* Sweep helpers *)

let test_sweep_grids () =
  let b = Sweep.buffers ~quick:true () in
  Alcotest.(check int) "quick buffers" 4 (Array.length b);
  Alcotest.(check bool) "ascending" true (b.(0) < b.(Array.length b - 1));
  let c = Sweep.cutoffs ~quick:false () in
  Alcotest.(check bool) "ends with inf" true
    (c.(Array.length c - 1) = Float.infinity)

let test_sweep_blocks_of_cutoffs () =
  let trace =
    Lrd_trace.Trace.create ~rates:(Array.make 100 1.0) ~slot:0.01
  in
  let blocks =
    Sweep.shuffle_blocks_of_cutoffs trace [| 0.001; 0.1; Float.infinity |]
  in
  (match blocks.(0) with
  | _, Some 1 -> ()
  | _ -> Alcotest.fail "sub-slot cutoff should clamp to one sample");
  (match blocks.(1) with
  | _, Some 10 -> ()
  | _ -> Alcotest.fail "0.1 s over 10 ms slots is 10 samples");
  match blocks.(2) with
  | _, None -> ()
  | _ -> Alcotest.fail "infinity maps to unshuffled"

let test_sweep_surface_layout () =
  let cells =
    Sweep.psurface ~xs:[| 1.0; 2.0; 3.0 |] ~ys:[| 10.0; 20.0 |]
      ~f:(fun x y -> x +. y)
      ()
  in
  Alcotest.(check int) "rows" 2 (Array.length cells);
  Alcotest.(check int) "cols" 3 (Array.length cells.(0));
  Alcotest.(check (float 1e-12)) "cell" 23.0 cells.(1).(2)

(* ------------------------------------------------------------------ *)
(* Scheduled sweeps *)

(* A fig12-style cell: marginal scaling on the x axis, buffer on the y
   axis.  Scaling is mean-preserving, so the buffer in work units is
   constant along a row and the scheduler's neighbour warm-starts
   apply. *)
let fig12_cell ctx a ~buffer_seconds =
  let marginal =
    Lrd_dist.Marginal.scale ~clamp:true (Data.mtv_marginal ctx) ~factor:a
  in
  let model =
    Lrd_core.Model.of_hurst ~marginal ~hurst:Data.mtv_hurst
      ~theta:(Data.mtv_theta ctx) ~cutoff:Float.infinity
  in
  Lrd_core.Solver.State.create_utilization ~params:(Data.solver_params ctx)
    model ~utilization:Data.mtv_utilization ~buffer_seconds

(* A fig4 cell: cutoff on the x axis, buffer on the y axis, one model
   and workload per cutoff column through a fresh cache per surface. *)
let fig4_state ctx =
  let cache = Lrd_core.Workload.Cache.create () in
  fun cutoff buffer_seconds ->
    let key = Sweep.cell_key cutoff in
    let model =
      Lrd_core.Workload.Cache.model cache ~key (fun () ->
          Data.mtv_model ctx ~cutoff)
    in
    Lrd_core.Solver.State.create_utilization ~params:(Data.solver_params ctx)
      ~cache:(cache, key) model ~utilization:Data.mtv_utilization
      ~buffer_seconds

let quick_fig12_axes () =
  (Sweep.scalings ~quick:true (), Sweep.buffers ~quick:true ~max_seconds:5.0 ())

(* Pools of 1, 2 and 3 domains, shut down after [f]. *)
let with_pools f =
  let pools = List.map (fun w -> Lrd_parallel.Pool.create ~workers:w ()) [ 0; 1; 2 ] in
  Fun.protect
    ~finally:(fun () -> List.iter Lrd_parallel.Pool.shutdown pools)
    (fun () -> f pools)

(* [compare] rather than [=]: bitwise-equal results may hold nan. *)
let check_same_surface msg a b =
  Alcotest.(check bool) msg true (compare a b = 0)

let test_scheduled_row_certified_and_contains_cold () =
  let module S = Lrd_core.Solver in
  let ctx = Lazy.force ctx in
  let scalings = Sweep.scalings ~quick:true () in
  let buffer_seconds = 1.0 in
  (* Independent cold solves of the same row, one state per cell. *)
  let cold =
    Array.map
      (fun a ->
        let st = fig12_cell ctx a ~buffer_seconds in
        S.State.run st;
        S.State.result st)
      scalings
  in
  let warm =
    (Sweep.scheduled_surface ~xs:scalings ~ys:[| buffer_seconds |]
       ~state:(fun a b -> fig12_cell ctx a ~buffer_seconds:b)
       ()).(0)
  in
  let params = Data.solver_params ctx in
  Array.iteri
    (fun i (c : S.result) ->
      let w = warm.(i) in
      Alcotest.(check bool) "certified: lower <= upper" true
        (w.S.lower_bound <= w.S.upper_bound);
      (* Under the uniform policy every cell must converge to the
         solver's own gap target (or fall below the negligible-loss
         floor). *)
      Alcotest.(check bool) "converged" true w.S.converged;
      Alcotest.(check bool) "gap within policy target" true
        (w.S.upper_bound < params.S.negligible_loss
        || w.S.upper_bound -. w.S.lower_bound
           <= params.S.tolerance
              *. ((w.S.upper_bound +. w.S.lower_bound) /. 2.0)
              +. 1e-12);
      (* Both intervals bracket the same true loss rate. *)
      Alcotest.(check bool) "warm and cold intervals overlap" true
        (w.S.lower_bound <= c.S.upper_bound +. 1e-12
        && c.S.lower_bound <= w.S.upper_bound +. 1e-12);
      (* The cold point estimate is the midpoint of an interval that
         also contains the truth, so it sits at most half the cold
         width outside the warm interval. *)
      let slack = (0.5 *. (c.S.upper_bound -. c.S.lower_bound)) +. 1e-12 in
      Alcotest.(check bool) "warm interval contains cold estimate" true
        (c.S.loss >= w.S.lower_bound -. slack
        && c.S.loss <= w.S.upper_bound +. slack))
    cold

let test_scheduled_matches_uniform_sweep_losses () =
  (* The scheduler under the uniform policy must land inside the same
     certified tolerance band as the classic cold sweep: compare the
     whole quick fig12 surface cell by cell via interval overlap. *)
  let module S = Lrd_core.Solver in
  let ctx = Lazy.force ctx in
  let scalings = Sweep.scalings ~quick:true () in
  let buffers = Sweep.buffers ~quick:true ~max_seconds:5.0 () in
  let scheduled =
    Sweep.scheduled_surface ~xs:scalings ~ys:buffers
      ~state:(fun a b -> fig12_cell ctx a ~buffer_seconds:b)
      ()
  in
  Array.iteri
    (fun iy row ->
      Array.iteri
        (fun ix (w : S.result) ->
          let st = fig12_cell ctx scalings.(ix) ~buffer_seconds:buffers.(iy) in
          S.State.run st;
          let c = S.State.result st in
          Alcotest.(check bool) "intervals overlap" true
            (w.S.lower_bound <= c.S.upper_bound +. 1e-12
            && c.S.lower_bound <= w.S.upper_bound +. 1e-12))
        row)
    scheduled

(* Under the uniform policy a surface is its rows' warm-start chains:
   each cell seeded from its finished left neighbour, then run to the
   end.  The scheduler must reproduce that bit for bit on any pool. *)
let test_scheduled_uniform_matches_reference () =
  let module S = Lrd_core.Solver in
  let ctx = Lazy.force ctx in
  let reference ~xs ~ys ~state =
    Array.map
      (fun y ->
        let left = ref None in
        Array.map
          (fun x ->
            let st = state x y in
            Option.iter (fun src -> ignore (S.State.seed_from ~src st)) !left;
            S.State.run st;
            left := Some st;
            S.State.result st)
          xs)
      ys
  in
  let scalings, fig12_buffers = quick_fig12_axes () in
  let fig12 = fun a b -> fig12_cell ctx a ~buffer_seconds:b in
  let cutoffs = Sweep.cutoffs ~quick:true () in
  let buffers = Sweep.buffers ~quick:true () in
  let fig12_ref = reference ~xs:scalings ~ys:fig12_buffers ~state:fig12 in
  let fig4_ref = reference ~xs:cutoffs ~ys:buffers ~state:(fig4_state ctx) in
  with_pools (fun pools ->
      List.iter
        (fun pool ->
          let jobs =
            match pool with
            | None -> "no pool"
            | Some p ->
                Printf.sprintf "pool of %d" (Lrd_parallel.Pool.parallelism p)
          in
          check_same_surface ("fig12, " ^ jobs) fig12_ref
            (Sweep.scheduled_surface ?pool ~xs:scalings ~ys:fig12_buffers
               ~state:fig12 ());
          check_same_surface ("fig4, " ^ jobs) fig4_ref
            (Sweep.scheduled_surface ?pool ~xs:cutoffs ~ys:buffers
               ~state:(fig4_state ctx) ()))
        (None :: List.map Option.some pools))

let test_scheduled_opens_rows_last_first () =
  (* Without a pool, row tasks run in index order and task k runs the
     k-th row from the end, so the deepest-buffer row opens first and
     each row opens all its cells before the next row starts. *)
  let ctx = Lazy.force ctx in
  let xs = [| 0.5; 1.0 |] and ys = [| 0.05; 0.1; 0.2 |] in
  let opened = ref [] in
  ignore
    (Sweep.scheduled_surface ~xs ~ys
       ~state:(fun a b ->
         opened := b :: !opened;
         fig12_cell ctx a ~buffer_seconds:b)
       ());
  Alcotest.(check (list (float 0.0)))
    "ys in opening order"
    [ 0.2; 0.2; 0.1; 0.1; 0.05; 0.05 ]
    (List.rev !opened)

(* Every cell now runs inside one row task, so each solver state opens
   and closes its [solver/solve] slice and its [solver/level] slices on
   one domain's track, warm cells included, and every solve, scheduled
   or not, is timed once.  A [both] half that the other participant
   ran for a row still running is one balanced [pool/lent] slice on
   its track, one per [pool/pairs_lent].  [Obs.Report] tolerates an
   unmatched end, so only the per-track counts catch one. *)
let test_scheduled_trace_levels_balance () =
  let module Obs = Lrd_obs.Obs in
  let module Trace = Obs.Trace in
  let ctx = Lazy.force ctx in
  let scalings, buffers = quick_fig12_axes () in
  let pool = Lrd_parallel.Pool.create ~workers:1 () in
  Trace.reset ();
  Trace.set_enabled true;
  Obs.set_enabled true;
  Obs.reset ();
  let snapshot =
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled false;
        Obs.set_enabled false;
        Obs.reset ();
        Lrd_parallel.Pool.shutdown pool)
      (fun () ->
        ignore
          (Sweep.scheduled_surface ~pool ~xs:scalings ~ys:buffers
             ~state:(fun a b -> fig12_cell ctx a ~buffer_seconds:b)
             ());
        Obs.snapshot ())
  in
  let solves =
    match Obs.find snapshot "solver/solves" with
    | Some (Obs.Counter { total; _ }) -> total
    | _ -> Alcotest.fail "solver/solves missing"
  and timed =
    match Obs.find snapshot "solver/solve_seconds" with
    | Some (Obs.Histogram h) -> h.Obs.count
    | _ -> Alcotest.fail "solver/solve_seconds missing"
  in
  Alcotest.(check bool) "cells solved" true (solves > 0);
  Alcotest.(check int) "every solve timed" solves timed;
  let lent =
    match Obs.find snapshot "pool/pairs_lent" with
    | Some (Obs.Counter { total; _ }) -> total
    | None -> 0
    | Some _ -> Alcotest.fail "pool/pairs_lent is not a counter"
  in
  let events = Trace.events () in
  Trace.reset ();
  Alcotest.(check int) "no events dropped" 0 (Trace.dropped ());
  let count name phase domain =
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           e.Trace.name = name && e.Trace.phase = phase
           && e.Trace.domain = domain)
         events)
  in
  let domains =
    List.sort_uniq compare
      (List.map (fun (e : Trace.event) -> e.Trace.domain) events)
  in
  Alcotest.(check bool) "some cell warm-started" true
    (List.exists (fun d -> count "sweep/warm_start" Trace.Instant d > 0)
       domains);
  Alcotest.(check bool) "levels traced" true
    (List.exists (fun d -> count "solver/level" Trace.Begin d > 0) domains);
  Alcotest.(check bool) "solves traced" true
    (List.exists (fun d -> count "solver/solve" Trace.Begin d > 0) domains);
  List.iter
    (fun d ->
      List.iter
        (fun name ->
          Alcotest.(check int)
            (Printf.sprintf "%s B = E on domain %d" name d)
            (count name Trace.Begin d) (count name Trace.End d))
        [ "solver/solve"; "solver/level"; "pool/lent" ])
    domains;
  Alcotest.(check int) "every lent half traced" lent
    (List.fold_left (fun n d -> n + count "pool/lent" Trace.Begin d) 0 domains)

(* A traced -j 2 run: every pool/idle slice a crew member opens, it
   closes, whether the member retires on its own after the idle period
   or at the context's teardown. *)
let test_pool_idle_balance () =
  let module Trace = Lrd_obs.Obs.Trace in
  let ctx = Lazy.force ctx in
  let scalings, buffers = quick_fig12_axes () in
  let run () =
    let jobs2 = Data.create ~jobs:2 ~quick:true () in
    Fun.protect
      ~finally:(fun () -> Data.teardown jobs2)
      (fun () ->
        ignore
          (Sweep.scheduled_surface ?pool:(Data.pool jobs2) ~xs:scalings
             ~ys:buffers
             ~state:(fun a b -> fig12_cell ctx a ~buffer_seconds:b)
             ()))
  in
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled false)
    (fun () ->
      run ();
      Lrd_parallel.Pool.both ignore ignore;
      Unix.sleepf 0.8;
      run ());
  let events = Trace.events () in
  Trace.reset ();
  Alcotest.(check int) "no events dropped" 0 (Trace.dropped ());
  let count phase domain =
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           e.Trace.name = "pool/idle" && e.Trace.phase = phase
           && e.Trace.domain = domain)
         events)
  in
  let domains =
    List.sort_uniq compare
      (List.map (fun (e : Trace.event) -> e.Trace.domain) events)
  in
  Alcotest.(check bool) "idle traced" true
    (List.exists (fun d -> count Trace.Begin d > 0) domains);
  List.iter
    (fun d ->
      Alcotest.(check int)
        (Printf.sprintf "pool/idle B = E on domain %d" d)
        (count Trace.Begin d) (count Trace.End d))
    domains

(* ------------------------------------------------------------------ *)
(* fig11_scale: superposition at production scale *)

let test_fig11_scale_population_partition () =
  List.iter
    (fun n ->
      let classes = Fig11_scale.population ~n in
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 classes in
      Alcotest.(check int)
        (Printf.sprintf "counts sum to %d" n)
        n total;
      List.iter
        (fun (_, c) ->
          Alcotest.(check bool) "count nonnegative" true (c >= 0))
        classes)
    [ 1; 7; 10; 99; 1000; 12_345 ];
  Alcotest.check_raises "rejects n = 0"
    (Invalid_argument "Fig11_scale.population: n must be >= 1") (fun () ->
      ignore (Fig11_scale.population ~n:0))

let test_fig11_scale_loss_decreases_with_n () =
  (* The figure's whole point: at fixed utilization, multiplexing more
     sources decreases the certified loss along every Hurst row. *)
  let ctx = Lazy.force ctx in
  let s = Fig11_scale.compute ctx in
  Array.iteri
    (fun iy row ->
      Array.iteri
        (fun ix v ->
          if ix > 0 then
            Alcotest.(check bool)
              (Printf.sprintf "loss(H=%g) nonincreasing at N=%g" s.Table.ys.(iy)
                 s.Table.xs.(ix))
              true
              (v <= row.(ix - 1) +. 1e-12))
        row)
    s.Table.cells

let () =
  Alcotest.run "experiments"
    [
      ( "table",
        [
          Alcotest.test_case "axis values" `Quick test_table_axis_value;
          Alcotest.test_case "cell values" `Quick test_table_cell_value;
          Alcotest.test_case "surface renders" `Quick
            test_table_surface_renders;
        ] );
      ( "data",
        [
          Alcotest.test_case "trace scales" `Slow
            test_data_traces_have_expected_scale;
          Alcotest.test_case "50-bin marginals" `Slow
            test_data_marginals_are_50_bin;
          Alcotest.test_case "theta matches epoch" `Slow
            test_data_theta_matches_epoch;
          Alcotest.test_case "model construction" `Slow
            test_data_model_construction;
        ] );
      ( "registry",
        [
          Alcotest.test_case "all figures present" `Quick
            test_registry_has_all_figures;
          Alcotest.test_case "rejects unknown id" `Slow
            test_registry_rejects_unknown_id;
          Alcotest.test_case "every entry runs (quick mode)" `Slow
            test_every_entry_runs;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "fig4: correlation horizon" `Slow
            test_fig4_correlation_horizon_shape;
          Alcotest.test_case "fig4: loss decreases with buffer" `Slow
            test_fig4_loss_decreases_with_buffer;
          Alcotest.test_case "fig9: marginal dominates" `Slow
            test_fig9_marginal_dominates;
          Alcotest.test_case "fig10: scaling beats Hurst" `Slow
            test_fig10_scaling_beats_hurst;
          Alcotest.test_case "fig11: superposition pays" `Slow
            test_fig11_superposition_reduces_loss;
          Alcotest.test_case "fig12: scaling beats buffering" `Slow
            test_fig12_scaling_beats_buffering;
          Alcotest.test_case "fig7: simulation flattens" `Slow
            test_fig7_simulation_flattens_in_cutoff;
          Alcotest.test_case "fig5: Bellcore shapes" `Slow
            test_fig5_bellcore_same_shapes;
          Alcotest.test_case "fig13: scaling beats buffering (BC)" `Slow
            test_fig13_bellcore_scaling_beats_buffering;
          Alcotest.test_case "fig11: monotone in streams" `Slow
            test_fig11_loss_monotone_in_streams;
          Alcotest.test_case "fig9: monotone in cutoff" `Slow
            test_fig9_series_monotone_in_cutoff;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "grids" `Quick test_sweep_grids;
          Alcotest.test_case "blocks of cutoffs" `Quick
            test_sweep_blocks_of_cutoffs;
          Alcotest.test_case "surface layout" `Quick test_sweep_surface_layout;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "warm row certified, contains cold" `Slow
            test_scheduled_row_certified_and_contains_cold;
          Alcotest.test_case "matches uniform sweep" `Slow
            test_scheduled_matches_uniform_sweep_losses;
          Alcotest.test_case "uniform matches sequential reference" `Slow
            test_scheduled_uniform_matches_reference;
          Alcotest.test_case "opens rows last first" `Quick
            test_scheduled_opens_rows_last_first;
          Alcotest.test_case "traced levels balance per domain" `Slow
            test_scheduled_trace_levels_balance;
          Alcotest.test_case "pool idle slices balance per domain" `Slow
            test_pool_idle_balance;
        ] );
      ( "fig11_scale",
        [
          Alcotest.test_case "population partitions exactly" `Quick
            test_fig11_scale_population_partition;
          Alcotest.test_case "loss decreases with N" `Slow
            test_fig11_scale_loss_decreases_with_n;
        ] );
    ]
