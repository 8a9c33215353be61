open Lrd_core

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let onoff_marginal = Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ]

let exp_model mean =
  Model.create ~marginal:onoff_marginal
    ~interarrival:(Lrd_dist.Interarrival.exponential ~mean)

let pareto_model ?(marginal = onoff_marginal) ~theta ~alpha ~cutoff () =
  Model.cutoff_pareto ~marginal ~theta ~alpha ~cutoff

(* ------------------------------------------------------------------ *)
(* Model *)

let test_hurst_alpha_mapping () =
  check_close "alpha of 0.83" 1.34 (Model.alpha_of_hurst 0.83);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Model.alpha_of_hurst: hurst must lie in (0.5, 1)")
    (fun () -> ignore (Model.alpha_of_hurst 0.5))

let test_model_moments () =
  let m = exp_model 1.0 in
  check_close "mean rate (eq. 2)" 1.0 (Model.mean_rate m);
  check_close "rate variance (eq. 4)" 1.0 (Model.rate_variance m);
  check_close "mean epoch" 1.0 (Model.mean_epoch m);
  check_close "service for util 0.5" 2.0
    (Model.service_rate_for_utilization m ~utilization:0.5)

let test_covariance_drops_at_cutoff () =
  (* Eq. 8: correlation is exactly zero beyond the cutoff lag. *)
  let m = pareto_model ~theta:0.5 ~alpha:1.4 ~cutoff:3.0 () in
  Alcotest.(check bool) "positive inside" true (Model.covariance m 1.0 > 0.0);
  check_close "zero at cutoff" 0.0 (Model.covariance m 3.0);
  check_close "zero beyond" 0.0 (Model.covariance m 10.0);
  check_close "variance at lag 0" (Model.rate_variance m)
    (Model.covariance m 0.0)

let test_covariance_formula_eq8 () =
  (* Closed form of eq. 8 against the implementation. *)
  let theta = 0.5 and alpha = 1.4 and cutoff = 3.0 in
  let m = pareto_model ~theta ~alpha ~cutoff () in
  let expected t =
    let p x = ((x +. theta) /. theta) ** (1.0 -. alpha) in
    Model.rate_variance m *. (p t -. p cutoff) /. (p 0.0 -. p cutoff)
  in
  List.iter
    (fun t ->
      check_close ~eps:1e-10
        (Printf.sprintf "phi(%g)" t)
        (expected t) (Model.covariance m t))
    [ 0.1; 0.5; 1.0; 2.0; 2.9 ]

let test_covariance_matches_monte_carlo () =
  (* The model's phi(t) = sigma^2 Pr{tau_res >= t} against an empirical
     autocovariance of a sampled path. *)
  let m = pareto_model ~theta:0.3 ~alpha:1.6 ~cutoff:5.0 () in
  let rng = Lrd_rng.Rng.create ~seed:2025L in
  let slot = 0.05 in
  let trace = Model.sample_trace m rng ~slots:400_000 ~slot in
  let acv =
    Lrd_stats.Autocorr.autocovariance trace.Lrd_trace.Trace.rates ~max_lag:40
  in
  (* Slot averaging smooths lag 0; compare at a few multi-slot lags. *)
  List.iter
    (fun lag ->
      let t = float_of_int lag *. slot in
      check_close ~eps:0.1
        (Printf.sprintf "acv at %g" t)
        (Model.covariance m t) acv.(lag))
    [ 4; 8; 16 ]

let test_sample_epochs_statistics () =
  let m = pareto_model ~theta:0.4 ~alpha:1.8 ~cutoff:2.0 () in
  let rng = Lrd_rng.Rng.create ~seed:31L in
  let epochs = Model.sample_epochs m rng ~n:100_000 in
  let durations = Array.map snd epochs in
  let rates = Array.map fst epochs in
  check_close ~eps:0.02 "mean epoch" (Model.mean_epoch m)
    (Lrd_numerics.Array_ops.mean durations);
  check_close ~eps:0.02 "mean rate" 1.0 (Lrd_numerics.Array_ops.mean rates)

let test_fit_from_trace_recovers_marginal () =
  (* Fit on a sampled path of a known model: marginal mean and epoch
     scale must come back close. *)
  let rng = Lrd_rng.Rng.create ~seed:17L in
  let trace =
    Lrd_trace.Video.generate_short rng ~n:16_384
  in
  let fitted = Model.fit_from_trace ~hurst:0.83 trace in
  check_close ~eps:1e-6 "marginal mean preserved"
    (Lrd_trace.Trace.mean trace)
    (Model.mean_rate fitted);
  (* Theta reproduces the measured mean epoch through eq. 25. *)
  let measured = Lrd_trace.Epochs.mean_epoch_duration ~bins:50 trace in
  check_close ~eps:1e-9 "epoch matched" measured (Model.mean_epoch fitted)

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_survival_two_sided () =
  (* Deterministic epochs of length 1: W = lambda - c exactly. *)
  let m =
    Model.create ~marginal:onoff_marginal
      ~interarrival:(Lrd_dist.Interarrival.deterministic ~value:1.0)
  in
  let w = Workload.create m ~service_rate:1.5 in
  (* W = -1.5 w.p. 1/2, +0.5 w.p. 1/2. *)
  check_close "ge -2" 1.0 (Workload.survival_ge w (-2.0));
  check_close "ge -1.5" 1.0 (Workload.survival_ge w (-1.5));
  check_close "gt -1.5" 0.5 (Workload.survival_gt w (-1.5));
  check_close "ge 0" 0.5 (Workload.survival_ge w 0.0);
  check_close "ge 0.5" 0.5 (Workload.survival_ge w 0.5);
  check_close "gt 0.5" 0.0 (Workload.survival_gt w 0.5);
  check_close "ge 1" 0.0 (Workload.survival_ge w 1.0)

let test_workload_survival_monotone_and_bounded () =
  let m = pareto_model ~theta:0.3 ~alpha:1.5 ~cutoff:4.0 () in
  let w = Workload.create m ~service_rate:1.2 in
  let xs = Lrd_numerics.Array_ops.linspace (-10.0) 10.0 101 in
  let prev = ref 1.1 in
  Array.iter
    (fun x ->
      let v = Workload.survival_ge w x in
      if v > !prev +. 1e-12 then Alcotest.failf "not monotone at %g" x;
      if v < 0.0 || v > 1.0 then Alcotest.failf "out of [0,1] at %g" x;
      if Workload.survival_gt w x > v +. 1e-12 then
        Alcotest.failf "gt above ge at %g" x;
      prev := v)
    xs

let test_workload_max_increment () =
  let m = pareto_model ~theta:0.3 ~alpha:1.5 ~cutoff:4.0 () in
  let w = Workload.create m ~service_rate:1.2 in
  check_close "cutoff * (peak - c)" (4.0 *. 0.8) (Workload.max_increment w);
  let all_below = Workload.create m ~service_rate:3.0 in
  check_close "no growth" 0.0 (Workload.max_increment all_below);
  let unbounded =
    Workload.create
      (pareto_model ~theta:0.3 ~alpha:1.5 ~cutoff:Float.infinity ())
      ~service_rate:1.2
  in
  Alcotest.(check bool) "unbounded" true
    (Workload.max_increment unbounded = Float.infinity)

let test_expected_overflow_closed_form () =
  (* Against the paper's closed form (display after eq. 14). *)
  let theta = 0.4 and alpha = 1.5 and cutoff = 6.0 in
  let m = pareto_model ~theta ~alpha ~cutoff () in
  let c = 1.25 in
  let w = Workload.create m ~service_rate:c in
  let buffer = 2.0 in
  let paper_formula x =
    (* Only the rate 2 exceeds c; pi = 0.5, delta = 0.75. *)
    let delta = 2.0 -. c in
    if (cutoff *. delta) -. buffer +. x <= 0.0 then 0.0
    else
      theta /. (alpha -. 1.0) *. 0.5 *. delta
      *. ((((buffer -. x) /. (theta *. delta)) +. 1.0) ** (1.0 -. alpha)
         -. (((cutoff /. theta) +. 1.0) ** (1.0 -. alpha)))
  in
  List.iter
    (fun x ->
      check_close ~eps:1e-10
        (Printf.sprintf "overflow at %g" x)
        (paper_formula x)
        (Workload.expected_overflow w ~buffer ~occupancy:x))
    [ 0.0; 0.5; 1.0; 1.5; 2.0 ]

let test_expected_overflow_monte_carlo () =
  let m = pareto_model ~theta:0.4 ~alpha:1.5 ~cutoff:6.0 () in
  let c = 1.25 in
  let w = Workload.create m ~service_rate:c in
  let buffer = 2.0 and occupancy = 1.0 in
  let rng = Lrd_rng.Rng.create ~seed:4L in
  let n = 500_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    let rate, dur =
      match Model.sample_epochs m rng ~n:1 with
      | [| (r, d) |] -> (r, d)
      | _ -> assert false
    in
    let increment = (rate -. c) *. dur in
    acc := !acc +. Float.max 0.0 (increment -. (buffer -. occupancy))
  done;
  check_close ~eps:0.03 "monte carlo"
    (!acc /. float_of_int n)
    (Workload.expected_overflow w ~buffer ~occupancy)

let test_expected_overflow_monotone_in_occupancy () =
  let m = pareto_model ~theta:0.4 ~alpha:1.5 ~cutoff:6.0 () in
  let w = Workload.create m ~service_rate:1.25 in
  let prev = ref (-1.0) in
  List.iter
    (fun x ->
      let v = Workload.expected_overflow w ~buffer:2.0 ~occupancy:x in
      if v < !prev -. 1e-12 then Alcotest.failf "not increasing at %g" x;
      prev := v)
    [ 0.0; 0.4; 0.8; 1.2; 1.6; 2.0 ]

let test_zero_buffer_loss_formula () =
  let m = exp_model 1.0 in
  let w = Workload.create m ~service_rate:1.25 in
  (* E[(lambda - c)^+] / mean = 0.5 * 0.75 / 1 = 0.375. *)
  check_close "zero buffer" 0.375 (Workload.zero_buffer_loss w)

let test_discretize_bins_sum_to_one () =
  let m = pareto_model ~theta:0.4 ~alpha:1.5 ~cutoff:6.0 () in
  let w = Workload.create m ~service_rate:1.25 in
  let bins = Workload.discretize w ~buffer:2.0 ~bins:64 in
  Alcotest.(check int) "length" 129 (Array.length bins.Workload.lower);
  check_close ~eps:1e-12 "lower mass" 1.0
    (Lrd_numerics.Array_ops.sum bins.Workload.lower);
  check_close ~eps:1e-12 "upper mass" 1.0
    (Lrd_numerics.Array_ops.sum bins.Workload.upper)

let test_discretize_stochastic_ordering () =
  (* The ceiling pmf must stochastically dominate the floor pmf: for
     every threshold, the upper chain has at least as much mass above. *)
  let m = pareto_model ~theta:0.4 ~alpha:1.5 ~cutoff:6.0 () in
  let w = Workload.create m ~service_rate:1.25 in
  let bins = Workload.discretize w ~buffer:2.0 ~bins:64 in
  let tail a k =
    let n = Array.length a in
    Lrd_numerics.Summation.kahan_slice a ~pos:k ~len:(n - k)
  in
  for k = 0 to 128 do
    if tail bins.Workload.upper k < tail bins.Workload.lower k -. 1e-12 then
      Alcotest.failf "ordering violated at bin %d" k
  done

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let random_workload ~memoize points ~theta ~alpha ~cutoff =
  let marginal = Lrd_dist.Marginal.of_points points in
  let rates = Lrd_dist.Marginal.rates marginal in
  let service_rate = rates.(Array.length rates / 2) in
  Workload.create ~memoize
    (pareto_model ~marginal ~theta ~alpha ~cutoff ())
    ~service_rate

(* [discretize] and [overflow_table] at [bins] against eqs. 21-22 rebuilt
   from survival_ge/survival_gt and the table from expected_overflow,
   bit for bit. *)
let grids_match_scalar_api w ~buffer ~bins =
  let b = Workload.discretize w ~buffer ~bins in
  let ov = Workload.overflow_table w ~buffer ~bins in
  let m = bins and d = b.Workload.step in
  let ge i = Workload.survival_ge w (float_of_int i *. d) in
  let gt i = Workload.survival_gt w (float_of_int i *. d) in
  let pos v = if v < 0.0 then 0.0 else v in
  let lower i =
    pos
      (if i = -m then 1.0 -. ge (i + 1)
       else if i = m then ge i
       else ge i -. ge (i + 1))
  in
  let upper i =
    pos
      (if i = -m then 1.0 -. gt i
       else if i = m then gt (i - 1)
       else gt (i - 1) -. gt i)
  in
  let ok = ref true in
  for i = -m to m do
    if
      not
        (bits_equal b.Workload.lower.(i + m) (lower i)
        && bits_equal b.Workload.upper.(i + m) (upper i))
    then ok := false
  done;
  Array.iteri
    (fun j v ->
      let occupancy = Float.min buffer (float_of_int j *. d) in
      if not (bits_equal v (Workload.expected_overflow w ~buffer ~occupancy))
      then ok := false)
    ov;
  !ok

(* The grid builders against the scalar API, bit for bit (eqs. 21-22
   rebuilt from survival_ge/survival_gt, the overflow table from
   expected_overflow), on random K-atom marginals whose service rate is
   one of the rates, so the zero-increment branch is always taken.  Bin
   counts reach past the kernels' block size. *)
let prop_grids_match_scalar_api =
  QCheck.Test.make ~count:40
    ~name:"discretize and overflow_table equal the scalar API bitwise"
    (QCheck.make
       QCheck.Gen.(
         quad
           (list_size (int_range 2 8)
              (pair (float_range 0.1 10.0) (float_range 0.05 1.0)))
           (triple (float_range 0.01 2.0) (float_range 0.5 2.5)
              (float_range 0.1 20.0))
           (float_range 0.01 5.0)
           (pair (int_range 1 700) bool)))
    (fun (points, (theta, alpha, cutoff), buffer, (bins, memoize)) ->
      let w = random_workload ~memoize points ~theta ~alpha ~cutoff in
      grids_match_scalar_api w ~buffer ~bins)

(* A memoizing workload quantized up a doubling ladder and strided back
   down (m, 2m, 4m, m): the doublings fill only the fresh points of each
   level, the last level is a stride of the finest one, and every level
   must still equal the scalar API bit for bit.  Each ladder runs once
   outside any task, where the fresh points are dealt between two
   domains, and once inside a task of a pool with no workers, where one
   domain computes them all. *)
let prop_grid_ladder_matches_scalar_api =
  QCheck.Test.make ~count:20
    ~name:"a doubling ladder and its stride equal the scalar API bitwise"
    (QCheck.make
       QCheck.Gen.(
         quad
           (list_size (int_range 2 8)
              (pair (float_range 0.1 10.0) (float_range 0.05 1.0)))
           (triple (float_range 0.01 2.0) (float_range 0.5 2.5)
              (float_range 0.1 20.0))
           (float_range 0.01 5.0) (int_range 1 160)))
    (fun (points, (theta, alpha, cutoff), buffer, m) ->
      let ladder () =
        let w = random_workload ~memoize:true points ~theta ~alpha ~cutoff in
        List.for_all
          (fun bins -> grids_match_scalar_api w ~buffer ~bins)
          [ m; 2 * m; 4 * m; m ]
      in
      let in_task =
        Lrd_parallel.Pool.with_pool ~workers:0 (fun pool ->
            (Lrd_parallel.Pool.map pool ladder [| () |]).(0))
      in
      ladder () && in_task)

(* The law's grid kernel sees which domains quantize: outside a task a
   fresh grid is split between the caller and the chain pair's helper,
   inside a task of a pool with no workers the caller computes it
   alone. *)
let test_quantization_domains () =
  if Domain.recommended_domain_count () > 1 then begin
    let domains () =
      let lock = Mutex.create () and seen = ref [] in
      let law = Lrd_dist.Interarrival.exponential ~mean:1.0 in
      let survival_grid ~n q ~ge ~gt =
        let id = (Domain.self () :> int) in
        Mutex.protect lock (fun () ->
            if not (List.mem id !seen) then seen := id :: !seen);
        law.Lrd_dist.Interarrival.survival_grid ~n q ~ge ~gt
      in
      let model =
        Model.create ~marginal:onoff_marginal
          ~interarrival:{ law with Lrd_dist.Interarrival.survival_grid }
      in
      let w = Workload.create model ~service_rate:1.25 in
      ignore (Workload.discretize w ~buffer:2.0 ~bins:64);
      List.length !seen
    in
    Alcotest.(check int) "outside a task" 2 (domains ());
    Alcotest.(check int)
      "inside a task" 1
      (Lrd_parallel.Pool.with_pool ~workers:0 (fun pool ->
           (Lrd_parallel.Pool.map pool domains [| () |]).(0)))
  end

(* Quantizing a grid allocates nothing per point or atom: a fresh
   discretize plus overflow_table on a 50-atom marginal takes the same
   minor-heap words at m = 1024 and m = 4096. *)
let test_quantization_allocation_flat () =
  let marginal =
    Lrd_dist.Marginal.of_points
      (List.init 50 (fun i ->
           (0.2 *. float_of_int i, 1.0 +. float_of_int (i mod 7))))
  in
  let model = pareto_model ~marginal ~theta:0.05 ~alpha:1.4 ~cutoff:10.0 () in
  let c = Model.service_rate_for_utilization model ~utilization:0.8 in
  let words m =
    let w = Workload.create ~memoize:true model ~service_rate:c in
    let before = Gc.minor_words () in
    ignore (Workload.discretize w ~buffer:c ~bins:m);
    ignore (Workload.overflow_table w ~buffer:c ~bins:m);
    Gc.minor_words () -. before
  in
  ignore (words 1024);
  let small = words 1024 and large = words 4096 in
  if Float.abs (large -. small) > 64.0 then
    Alcotest.failf "minor words grow with m: %.0f at m = 1024, %.0f at 4096"
      small large

(* ------------------------------------------------------------------ *)
(* Solver *)

let test_solver_zero_buffer_closed_form () =
  let m = exp_model 1.0 in
  let r = Solver.solve m ~service_rate:1.25 ~buffer:0.0 in
  check_close "B=0" 0.375 r.Solver.loss;
  Alcotest.(check bool) "converged" true r.Solver.converged

let test_solver_underloaded_is_zero () =
  (* All rates below the service rate: loss must be exactly zero. *)
  let m = exp_model 1.0 in
  let r = Solver.solve m ~service_rate:2.5 ~buffer:1.0 in
  check_close "no loss" 0.0 r.Solver.loss

let test_solver_bounds_bracket () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let r = Solver.solve m ~service_rate:1.25 ~buffer:2.0 in
  Alcotest.(check bool) "lower <= upper" true
    (r.Solver.lower_bound <= r.Solver.upper_bound);
  Alcotest.(check bool) "loss inside" true
    (r.Solver.loss >= r.Solver.lower_bound
    && r.Solver.loss <= r.Solver.upper_bound);
  Alcotest.(check bool) "converged" true r.Solver.converged;
  (* The paper's 20% gap criterion. *)
  Alcotest.(check bool) "gap criterion" true
    (r.Solver.upper_bound -. r.Solver.lower_bound
    <= 0.2 *. ((r.Solver.upper_bound +. r.Solver.lower_bound) /. 2.0)
       +. 1e-12)

let test_solver_matches_simulation_exponential () =
  let m = exp_model 1.0 in
  let c = 1.25 and buffer = 2.0 in
  let r = Solver.solve m ~service_rate:c ~buffer in
  let rng = Lrd_rng.Rng.create ~seed:42L in
  let epochs = Model.sample_epochs m rng ~n:2_000_000 in
  let sim = Lrd_fluidsim.Queue_sim.make ~service_rate:c ~buffer () in
  let stats =
    Lrd_fluidsim.Queue_sim.run_epochs sim (Array.to_seq epochs)
  in
  check_close ~eps:0.02 "solver vs simulation"
    (Lrd_fluidsim.Queue_sim.loss_rate stats)
    r.Solver.loss

let test_solver_matches_simulation_truncated_pareto () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:2.0 () in
  let c = 1.25 and buffer = 1.0 in
  let r = Solver.solve m ~service_rate:c ~buffer in
  let rng = Lrd_rng.Rng.create ~seed:43L in
  let epochs = Model.sample_epochs m rng ~n:2_000_000 in
  let sim = Lrd_fluidsim.Queue_sim.make ~service_rate:c ~buffer () in
  let stats = Lrd_fluidsim.Queue_sim.run_epochs sim (Array.to_seq epochs) in
  check_close ~eps:0.05 "solver vs simulation"
    (Lrd_fluidsim.Queue_sim.loss_rate stats)
    r.Solver.loss

let test_solver_loss_decreasing_in_buffer () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let prev = ref 1.0 in
  List.iter
    (fun b ->
      let r = Solver.solve m ~service_rate:1.25 ~buffer:b in
      if r.Solver.loss > !prev +. 1e-9 then
        Alcotest.failf "loss grew at B=%g" b;
      prev := r.Solver.loss)
    [ 0.0; 0.5; 1.0; 2.0; 4.0 ]

let test_solver_loss_increasing_in_cutoff () =
  let loss cutoff =
    let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff () in
    (Solver.solve m ~service_rate:1.25 ~buffer:2.0).Solver.loss
  in
  let prev = ref 0.0 in
  List.iter
    (fun tc ->
      let l = loss tc in
      (* 20%-tolerance bounds leave some slack; require no big drop. *)
      if l < !prev *. 0.9 then Alcotest.failf "loss dropped at Tc=%g" tc;
      prev := l)
    [ 0.5; 1.0; 2.0; 5.0; 20.0; 100.0; Float.infinity ]

let test_solver_loss_increasing_in_utilization () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let loss u = (Solver.solve_utilization m ~utilization:u ~buffer_seconds:1.0).Solver.loss in
  let l1 = loss 0.5 and l2 = loss 0.7 and l3 = loss 0.9 in
  Alcotest.(check bool) "0.5 < 0.7" true (l1 <= l2);
  Alcotest.(check bool) "0.7 < 0.9" true (l2 <= l3)

(* The bounds are checked every 16 steps and at the budget, so a budget
   inside the first check period and one that cuts the second short
   both stop the solve exactly there. *)
let test_solver_respects_max_iterations () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  List.iter
    (fun max_iterations ->
      let params = { Solver.default_params with max_iterations } in
      let r = Solver.solve ~params m ~service_rate:1.25 ~buffer:2.0 in
      Alcotest.(check int) "stopped at the budget" max_iterations
        r.Solver.iterations;
      Alcotest.(check bool) "unconverged" false r.Solver.converged)
    [ 4; 20 ]

(* A solve that plateaus at the grid cap stops unconverged well inside
   its iteration budget, and its printed result must not claim the
   budget ran out. *)
let test_solver_grid_cap_result_label () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let params =
    {
      Solver.default_params with
      initial_bins = 16;
      max_bins = 16;
      tolerance = 1e-9;
    }
  in
  let r = Solver.solve ~params m ~service_rate:1.25 ~buffer:2.0 in
  Alcotest.(check bool) "unconverged" false r.Solver.converged;
  Alcotest.(check bool)
    "stopped inside the budget" true
    (r.Solver.iterations < params.Solver.max_iterations);
  let line = Format.asprintf "%a" Solver.pp_result r in
  let contains sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length line && (String.sub line i n = sub || at (i + 1))
    in
    at 0
  in
  Alcotest.(check bool) ("labelled: " ^ line) true
    (contains "gap target not met" && not (contains "budget"))

let test_solver_cold_restart_same_answer () =
  let m = pareto_model ~theta:0.05 ~alpha:1.4 ~cutoff:0.5 () in
  let warm = Solver.solve m ~service_rate:1.25 ~buffer:2.0 in
  let cold =
    Solver.solve
      ~params:{ Solver.default_params with warm_restart = false }
      m ~service_rate:1.25 ~buffer:2.0
  in
  (* Both are certified bounds on the same quantity: intervals overlap. *)
  Alcotest.(check bool) "intervals overlap" true
    (warm.Solver.lower_bound <= cold.Solver.upper_bound +. 1e-12
    && cold.Solver.lower_bound <= warm.Solver.upper_bound +. 1e-12)

let test_solver_negligible_loss_reports_zero () =
  (* Deep-buffer low-utilization case: upper bound sinks below 1e-10. *)
  let m = exp_model 0.01 in
  let r = Solver.solve m ~service_rate:1.9 ~buffer:50.0 in
  check_close "zero" 0.0 r.Solver.loss;
  Alcotest.(check bool) "converged" true r.Solver.converged

let test_solver_rejects_bad_input () =
  let m = exp_model 1.0 in
  Alcotest.check_raises "service rate"
    (Invalid_argument "Solver.solve: service rate must be positive") (fun () ->
      ignore (Solver.solve m ~service_rate:0.0 ~buffer:1.0));
  Alcotest.check_raises "buffer"
    (Invalid_argument "Solver.solve: buffer must be nonnegative") (fun () ->
      ignore (Solver.solve m ~service_rate:1.0 ~buffer:(-1.0)));
  (* A grid over an infinite buffer has step inf: its "converged" zero
     loss would certify nothing. *)
  Alcotest.check_raises "infinite buffer"
    (Invalid_argument "Solver.solve: buffer must be finite") (fun () ->
      ignore (Solver.solve m ~service_rate:1.0 ~buffer:Float.infinity));
  Alcotest.check_raises "infinite buffer, state"
    (Invalid_argument "Solver.solve: buffer must be finite") (fun () ->
      ignore (Solver.State.create m ~service_rate:1.0 ~buffer:Float.infinity))

let test_solver_golden_matrix () =
  (* Bit-level regression guard for the workspace/dual-channel rewrite:
     bounds captured from the pre-rewrite solver on a fixed matrix of
     models and buffers must be reproduced within 1e-12. *)
  let abs_close msg expected actual =
    if Float.abs (expected -. actual) > 1e-12 then
      Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual
  in
  let cases =
    [
      ( "exp-b2",
        (fun () -> Solver.solve (exp_model 1.0) ~service_rate:1.25 ~buffer:2.0),
        0.13421694926699876,
        0.13739770201764384 );
      ( "pareto-b2",
        (fun () ->
          Solver.solve
            (pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 ())
            ~service_rate:1.25 ~buffer:2.0),
        0.10220519151258785,
        0.11430183756186045 );
      ( "zero-buffer",
        (fun () -> Solver.solve (exp_model 1.0) ~service_rate:1.25 ~buffer:0.0),
        0.375,
        0.375 );
      ( "deep-buffer",
        (fun () ->
          Solver.solve
            (pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 ())
            ~service_rate:1.25 ~buffer:8.0),
        0.012259692007597899,
        0.014477594113131442 );
      ( "pareto-shallow",
        (fun () ->
          Solver.solve
            (pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 ())
            ~service_rate:1.25 ~buffer:0.5),
        0.22507759222467275,
        0.22739642852406491 );
    ]
  in
  List.iter
    (fun (name, solve, lower, upper) ->
      let r = solve () in
      abs_close (name ^ " lower") lower r.Solver.lower_bound;
      abs_close (name ^ " upper") upper r.Solver.upper_bound)
    cases

let test_workspace_step_does_not_allocate () =
  (* The acceptance invariant of the zero-allocation rewrite: once a
     workspace is warm, [Workspace.step] must not touch the minor heap.
     Only meaningful in native code — bytecode boxes every float. *)
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let workload = Workload.create m ~service_rate:1.25 in
  List.iter
    (fun bins ->
      let ws = Solver.Workspace.make workload ~buffer:2.0 ~m:bins in
      for _ = 1 to 16 do
        Solver.Workspace.step ws
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to 64 do
        Solver.Workspace.step ws
      done;
      let allocated = Gc.minor_words () -. w0 in
      match Sys.backend_type with
      | Sys.Native ->
          if allocated > 0.0 then
            Alcotest.failf
              "steady-state step allocated %.0f minor words at m = %d"
              allocated bins
      | Sys.Bytecode | Sys.Other _ -> ())
    (* Both parities of log2 m, a large grid, and grids off the
       doubling ladder: m = 80 and m = 100 both step on 256 points, 80
       without wrap-around. *)
    [ 128; 256; 4096; 80; 100 ]

(* One Lindley step (eqs. 19-20) the slow way: the exact linear product
   of the pmf with the kernel, mass at or below 0 into the empty state,
   mass at or above B into the full state, renormalized as the solver's
   fold does. *)
let exact_step pmf kernel =
  let m = Array.length pmf - 1 in
  let u = Lrd_numerics.Convolution.direct pmf kernel in
  let sum a b = Lrd_numerics.Array_ops.sum (Array.sub u a (b - a + 1)) in
  let q =
    Array.init (m + 1) (fun j ->
        if j = 0 then sum 0 m else if j = m then sum (2 * m) (3 * m)
        else u.(m + j))
  in
  let total = Lrd_numerics.Array_ops.sum q in
  Array.map (fun v -> v /. total) q

(* A grid of m bins whose plan of n = next_power_of_two (2m) points
   either wraps the 3m + 1 linear values (n <= 3m, as on the doubling
   ladder m = n / 2) or holds them all (n > 3m, e.g. m = 130 on 512
   points), half the draws each. *)
let grid_gen =
  QCheck.Gen.(
    pair (int_range 7 13) bool >>= fun (k, wraps) ->
    let n = 1 lsl k in
    if wraps then int_range ((n + 2) / 3) (n / 2)
    else int_range ((n / 4) + 1) ((n - 1) / 3))

let prop_wrapped_step_matches_exact =
  QCheck.Test.make ~count:16
    ~name:"grid step matches the exact linear fold"
    (QCheck.make
       ~print:(fun (points, m, u) ->
         Printf.sprintf "m=%d u=%g atoms=[%s]" m u
           (String.concat "; "
              (List.map (fun (x, p) -> Printf.sprintf "%g,%g" x p) points)))
       QCheck.Gen.(
         triple
           (list_size (int_range 2 5)
              (pair (float_range 0.0 10.0) (float_range 0.05 1.0)))
           grid_gen (float_range 0.3 0.95)))
    (fun (points, m, utilization) ->
      let marginal = Lrd_dist.Marginal.of_points points in
      let model = pareto_model ~marginal ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
      let service_rate = Model.service_rate_for_utilization model ~utilization in
      let workload = Workload.create model ~service_rate in
      let buffer = 0.5 *. service_rate in
      let bins = Workload.discretize workload ~buffer ~bins:m in
      let ws = Solver.Workspace.make workload ~buffer ~m in
      (* Two steps first, so the compared step starts from spread pmfs. *)
      Solver.Workspace.step ws;
      Solver.Workspace.step ws;
      let lower = Solver.Workspace.lower_pmf ws
      and upper = Solver.Workspace.upper_pmf ws in
      Solver.Workspace.step ws;
      let close expect got =
        Array.for_all2 (fun e g -> Float.abs (e -. g) <= 1e-13) expect got
      in
      close (exact_step lower bins.Workload.lower) (Solver.Workspace.lower_pmf ws)
      && close (exact_step upper bins.Workload.upper)
           (Solver.Workspace.upper_pmf ws))

(* ------------------------------------------------------------------ *)
(* Chain pair: a one-shot solve outside a pool task steps its floor
   chain on the caller and its ceiling chain on the helper domain
   ({!Lrd_parallel.Pool.both}); inside a task of a pool with no
   workers both step on one domain; inside the one task of a pool with
   a worker, the worker, out of tasks, is lent the ceiling chain.
   Where the chains ran must not change a bit. *)

(* Everything a detailed solve reports, floats as bit patterns. *)
let detailed_bits ((r : Solver.result), (occ : Solver.occupancy)) =
  let bits = Int64.bits_of_float in
  ( List.map bits [ r.loss; r.lower_bound; r.upper_bound; occ.Solver.step ],
    (r.iterations, r.bins, r.refinements, r.converged),
    Array.map bits occ.Solver.lower_pmf,
    Array.map bits occ.Solver.upper_pmf )

(* The solve on this domain (chains paired), inside a task of a pool
   with no workers (chains in turn) and inside the one task of a pool
   with a worker (ceiling chain lent to the worker). *)
let paired_sequential_lent ?params model ~service_rate ~buffer =
  let solve () = Solver.solve_detailed ?params model ~service_rate ~buffer in
  let in_task workers =
    Lrd_parallel.Pool.with_pool ~workers (fun pool ->
        (Lrd_parallel.Pool.map pool solve [| () |]).(0))
  in
  let paired = solve () in
  let sequential = in_task 0 in
  (paired, sequential, in_task 1)

let test_chain_pair_bitwise () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let p = Solver.default_params in
  let refined r = r.Solver.refinements > 0 in
  let cases =
    [
      ("circular engine", p, 1.25, 8.0, refined);
      (* 100 * 2^k is never a power of two: every level steps on a plan
         of next_power_of_two (2m) > 2m points. *)
      ( "grid off the doubling ladder",
        { p with initial_bins = 100 },
        1.25,
        8.0,
        fun r -> refined r && r.Solver.bins mod 25 = 0 );
      ("cold restarts", { p with warm_restart = false }, 1.25, 8.0, refined);
      ( "refinement ladder",
        { p with tolerance = 0.05 },
        1.1,
        8.0,
        fun r -> r.Solver.bins >= 4096 );
      ( "iteration budget",
        { p with max_iterations = 40 },
        1.25,
        8.0,
        fun r -> (not r.Solver.converged) && r.Solver.iterations = 40 );
    ]
  in
  List.iter
    (fun (name, params, service_rate, buffer, shape) ->
      let paired, sequential, lent =
        paired_sequential_lent ~params m ~service_rate ~buffer
      in
      Alcotest.(check bool) (name ^ ": case shape") true (shape (fst paired));
      Alcotest.(check bool)
        (name ^ ": identical bits")
        true
        (detailed_bits paired = detailed_bits sequential);
      Alcotest.(check bool)
        (name ^ ": identical bits, lent")
        true
        (detailed_bits paired = detailed_bits lent))
    cases

let prop_chain_pair_bitwise =
  QCheck.Test.make ~count:12
    ~name:"paired chains match sequential chains bitwise"
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 2 5)
              (pair (float_range 0.0 10.0) (float_range 0.05 1.0)))
           (float_range 0.3 0.95) (float_range 0.01 5.0)))
    (fun (points, utilization, buffer_seconds) ->
      let marginal = Lrd_dist.Marginal.of_points points in
      let model = pareto_model ~marginal ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
      let service_rate =
        Model.service_rate_for_utilization model ~utilization
      in
      let params =
        { Solver.default_params with max_iterations = 2_000; max_bins = 2048 }
      in
      let paired, sequential, lent =
        paired_sequential_lent ~params model ~service_rate
          ~buffer:(buffer_seconds *. service_rate)
      in
      detailed_bits paired = detailed_bits sequential
      && detailed_bits paired = detailed_bits lent)

(* ------------------------------------------------------------------ *)
(* Solver states *)

(* Each state quantizes through its own grid memo: a 128 -> 256 doubling
   reuses every coarse point even after another cell of the same cached
   column quantized another buffer. *)
let test_state_grid_memo_per_cell () =
  let module Obs = Lrd_obs.Obs in
  let model = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:2.0 () in
  (* A gap target no resolution meets, so the first stall refines and
     the second, at the cap, ends the solve. *)
  let params =
    { Solver.default_params with Solver.tolerance = 1e-12; max_bins = 256 }
  in
  let cache = Workload.Cache.create () in
  let cell buffer =
    Solver.State.create ~params ~cache:(cache, "column") model
      ~service_rate:1.25 ~buffer
  in
  let a = cell 2.0 and b = cell 3.0 in
  let fresh = Obs.Counter.make "workload_grid/points_fresh"
  and reused = Obs.Counter.make "workload_grid/points_reused" in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      Solver.State.run b;
      let f0 = Obs.Counter.value fresh and r0 = Obs.Counter.value reused in
      Solver.State.run a;
      let r = Solver.State.result a in
      Alcotest.(check int) "refined once" 1 r.Solver.refinements;
      Alcotest.(check int) "at 256 bins" 256 r.Solver.bins;
      (* Survival grids: 2 m + 1 points, overflow table: m + 1.  The
         128-bin level computes all of its points; the doubling reuses
         them and computes only the new ones. *)
      Alcotest.(check int) "coarse points reused" (257 + 129)
        (Obs.Counter.value reused - r0);
      Alcotest.(check int) "only new points computed"
        ((257 + 129) + (256 + 128))
        (Obs.Counter.value fresh - f0))

(* ------------------------------------------------------------------ *)
(* Snapshots (Fig. 2 machinery) *)

let test_snapshots_monotone_in_n () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let snaps =
    Solver.iterate_snapshots m ~service_rate:1.25 ~buffer:2.0 ~bins:100
      ~at:[ 5; 10; 30 ]
  in
  Alcotest.(check int) "three snapshots" 3 (List.length snaps);
  let losses_lower = List.map (fun s -> s.Solver.lower_loss) snaps in
  let losses_upper = List.map (fun s -> s.Solver.upper_loss) snaps in
  (* Proposition II.1: lower loss increasing in n, upper decreasing. *)
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "lower increasing" true (increasing losses_lower);
  Alcotest.(check bool) "upper decreasing" true
    (increasing (List.rev losses_upper));
  (* Bracket at every n. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "bracket" true
        (s.Solver.lower_loss <= s.Solver.upper_loss +. 1e-12))
    snaps

let test_snapshots_pmfs_are_distributions () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let snaps =
    Solver.iterate_snapshots m ~service_rate:1.25 ~buffer:2.0 ~bins:50
      ~at:[ 0; 7 ]
  in
  List.iter
    (fun s ->
      check_close ~eps:1e-9 "lower mass" 1.0
        (Lrd_numerics.Array_ops.sum s.Solver.lower_pmf);
      check_close ~eps:1e-9 "upper mass" 1.0
        (Lrd_numerics.Array_ops.sum s.Solver.upper_pmf))
    snaps;
  (* At n = 0 the chains are the initial empty/full distributions. *)
  match snaps with
  | first :: _ ->
      check_close "starts empty" 1.0 first.Solver.lower_pmf.(0);
      check_close "starts full" 1.0 first.Solver.upper_pmf.(50)
  | [] -> Alcotest.fail "no snapshots"

let test_snapshots_reject_unsorted () =
  let m = exp_model 1.0 in
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Solver.iterate_snapshots: iteration list must be ascending")
    (fun () ->
      ignore
        (Solver.iterate_snapshots m ~service_rate:1.25 ~buffer:1.0 ~bins:10
           ~at:[ 10; 5 ]))

(* ------------------------------------------------------------------ *)
(* Occupancy distribution *)

let test_occupancy_pmfs_are_distributions () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let _, occ = Solver.solve_detailed m ~service_rate:1.25 ~buffer:2.0 in
  check_close ~eps:1e-9 "lower mass" 1.0
    (Lrd_numerics.Array_ops.sum occ.Solver.lower_pmf);
  check_close ~eps:1e-9 "upper mass" 1.0
    (Lrd_numerics.Array_ops.sum occ.Solver.upper_pmf);
  Alcotest.(check bool) "step positive" true (occ.Solver.step > 0.0)

let test_occupancy_bounds_order () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let _, occ = Solver.solve_detailed m ~service_rate:1.25 ~buffer:2.0 in
  let lo, hi = Solver.mean_occupancy occ in
  Alcotest.(check bool) "mean ordered" true (lo <= hi);
  List.iter
    (fun threshold ->
      let l, h = Solver.occupancy_ccdf occ ~threshold in
      if l > h +. 1e-12 then Alcotest.failf "ccdf order at %g" threshold)
    [ 0.0; 0.5; 1.0; 1.5; 2.0 ];
  let q_lo, q_hi = Solver.occupancy_quantile occ ~p:0.9 in
  Alcotest.(check bool) "quantile ordered" true (q_lo <= q_hi)

let test_occupancy_brackets_simulation () =
  (* The certified occupancy intervals must contain the Monte Carlo
     epoch-point occupancy statistics. *)
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let c = 1.25 and buffer = 2.0 in
  let _, occ = Solver.solve_detailed m ~service_rate:c ~buffer in
  let rng = Lrd_rng.Rng.create ~seed:71L in
  let sim = Lrd_fluidsim.Queue_sim.make ~service_rate:c ~buffer () in
  let samples =
    Array.map
      (fun (rate, duration) ->
        let q = Lrd_fluidsim.Queue_sim.occupancy sim in
        ignore (Lrd_fluidsim.Queue_sim.offer sim ~rate ~duration);
        q)
      (Model.sample_epochs m rng ~n:500_000)
  in
  let lo, hi = Solver.mean_occupancy occ in
  let simulated = Lrd_numerics.Array_ops.mean samples in
  (* Allow a little Monte Carlo slack at the interval edges. *)
  Alcotest.(check bool) "mean inside" true
    (simulated >= lo -. 0.02 && simulated <= hi +. 0.02);
  List.iter
    (fun threshold ->
      let l, h = Solver.occupancy_ccdf occ ~threshold in
      let s =
        float_of_int
          (Array.fold_left
             (fun acc q -> if q >= threshold then acc + 1 else acc)
             0 samples)
        /. float_of_int (Array.length samples)
      in
      if not (s >= l -. 0.02 && s <= h +. 0.02) then
        Alcotest.failf "ccdf at %g: sim %.4f outside [%.4f, %.4f]" threshold
          s l h)
    [ 0.2; 1.0; 1.8 ]

let test_occupancy_zero_buffer_point_mass () =
  let m = exp_model 1.0 in
  let _, occ = Solver.solve_detailed m ~service_rate:1.25 ~buffer:0.0 in
  check_close "mass at zero" 1.0 occ.Solver.lower_pmf.(0);
  let lo, hi = Solver.mean_occupancy occ in
  check_close "mean lo" 0.0 lo;
  check_close "mean hi" 0.0 hi

let test_virtual_delay_scales () =
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let _, occ = Solver.solve_detailed m ~service_rate:1.25 ~buffer:2.0 in
  let mean_lo, _ = Solver.mean_occupancy occ in
  let delay_lo, _ = Solver.mean_virtual_delay occ ~service_rate:1.25 in
  check_close ~eps:1e-12 "delay = q / c" (mean_lo /. 1.25) delay_lo

(* ------------------------------------------------------------------ *)
(* Provision *)

let provision_model =
  lazy
    (let marginal =
       Lrd_dist.Marginal.of_points [ (0.0, 0.6); (1.5, 0.3); (3.0, 0.1) ]
     in
     Model.cutoff_pareto ~marginal ~theta:0.05 ~alpha:1.5 ~cutoff:2.0)

let test_provision_buffer_for_loss () =
  let model = Lazy.force provision_model in
  match
    Provision.buffer_for_loss model ~utilization:0.6 ~target:1e-4
  with
  | Provision.Unachievable_within _ -> Alcotest.fail "should be achievable"
  | Provision.Achieved b ->
      Alcotest.(check bool) "positive" true (b >= 0.0);
      (* The returned buffer meets the target... *)
      let loss =
        (Solver.solve_utilization model ~utilization:0.6 ~buffer_seconds:b)
          .Solver.loss
      in
      Alcotest.(check bool) "meets target" true (loss <= 1e-4);
      (* ... and a much smaller buffer does not. *)
      if b > 0.01 then begin
        let loss_small =
          (Solver.solve_utilization model ~utilization:0.6
             ~buffer_seconds:(b /. 4.0))
            .Solver.loss
        in
        Alcotest.(check bool) "tight-ish" true (loss_small > 1e-4)
      end

let test_provision_buffer_unachievable () =
  (* Untruncated LRD source: the buffer axis cannot reach a deep target
     within a small search limit. *)
  let marginal = Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ] in
  let model =
    Model.cutoff_pareto ~marginal ~theta:0.1 ~alpha:1.2
      ~cutoff:Float.infinity
  in
  match
    Provision.buffer_for_loss ~max_buffer_seconds:2.0 model ~utilization:0.8
      ~target:1e-8
  with
  | Provision.Unachievable_within limit -> check_close "limit" 2.0 limit
  | Provision.Achieved b -> Alcotest.failf "unexpectedly achieved at %g" b

let test_provision_utilization_for_loss () =
  let model = Lazy.force provision_model in
  match
    Provision.utilization_for_loss model ~buffer_seconds:0.5 ~target:1e-4
  with
  | Provision.Unachievable_within _ -> Alcotest.fail "should be achievable"
  | Provision.Achieved u ->
      Alcotest.(check bool) "in range" true (u > 0.0 && u < 1.0);
      let loss =
        (Solver.solve_utilization model ~utilization:u ~buffer_seconds:0.5)
          .Solver.loss
      in
      Alcotest.(check bool) "meets target" true (loss <= 1e-4)

let test_provision_streams_for_loss () =
  let model = Lazy.force provision_model in
  match
    Provision.streams_for_loss model ~utilization:0.7 ~buffer_seconds:0.2
      ~target:1e-5
  with
  | Provision.Unachievable_within _ -> Alcotest.fail "should be achievable"
  | Provision.Achieved n ->
      let n = int_of_float n in
      Alcotest.(check bool) "count positive" true (n >= 1);
      let loss k =
        let marginal =
          Lrd_dist.Marginal.superpose model.Model.marginal ~n:k
        in
        (Solver.solve_utilization
           { model with Model.marginal }
           ~utilization:0.7 ~buffer_seconds:0.2)
          .Solver.loss
      in
      Alcotest.(check bool) "meets target" true (loss n <= 1e-5);
      if n > 1 then
        Alcotest.(check bool) "minimal" true (loss (n - 1) > 1e-5)

let test_provision_rejects_bad_target () =
  let model = Lazy.force provision_model in
  Alcotest.check_raises "too deep"
    (Invalid_argument "Provision: target loss must lie in [1e-10, 1)")
    (fun () ->
      ignore (Provision.buffer_for_loss model ~utilization:0.5 ~target:1e-12))

(* ------------------------------------------------------------------ *)
(* Asymptotics *)

let test_kappa_values () =
  check_close ~eps:1e-12 "kappa 0.5" 0.5 (Asymptotics.kappa 0.5);
  (* H^H (1-H)^(1-H) at H = 0.8. *)
  check_close ~eps:1e-12 "kappa 0.8"
    ((0.8 ** 0.8) *. (0.2 ** 0.2))
    (Asymptotics.kappa 0.8)

let test_fbm_tail_shape () =
  let tail level =
    Asymptotics.fbm_tail ~mean:5.0 ~variance_coefficient:0.5 ~hurst:0.8
      ~service_rate:6.0 ~level
  in
  Alcotest.(check bool) "decreasing" true (tail 1.0 > tail 2.0);
  (* Weibull shape: -log P linear in b^(2-2H). *)
  let x1 = -.log (tail 1.0) and x4 = -.log (tail 4.0) in
  check_close ~eps:1e-9 "weibull scaling" (4.0 ** 0.4) (x4 /. x1);
  check_close "exponent" 0.4 (Asymptotics.fbm_tail_exponent ~hurst:0.8)

let test_onoff_tail_shape () =
  let tail level =
    Asymptotics.onoff_tail ~peak:2.0 ~mean_on:0.5 ~mean_off:0.5 ~alpha:1.5
      ~service_rate:1.4 ~level
  in
  Alcotest.(check bool) "decreasing" true (tail 1.0 > tail 10.0);
  (* Hyperbolic: P(b) b^(alpha-1) converges to a constant. *)
  let r1 = tail 100.0 *. (100.0 ** 0.5) in
  let r2 = tail 10_000.0 *. (10_000.0 ** 0.5) in
  check_close ~eps:0.1 "hyperbolic scaling" r1 r2

let test_exponential_decay_rate_known_case () =
  (* Two rates 0 and 2, exponential epochs mean 1, c = 1.25:
     0.5 / (1 + 1.25 d) + 0.5 / (1 - 0.75 d) = 1
     <=> 0.25 d = 0.9375 d^2  =>  d = 4/15. *)
  let marginal = Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ] in
  let delta =
    Asymptotics.exponential_decay_rate ~marginal ~mean_epoch:1.0
      ~service_rate:1.25
  in
  check_close ~eps:1e-9 "closed form" (4.0 /. 15.0) delta

let test_exponential_decay_rate_matches_simulation () =
  (* Empirical log-tail slope of the infinite-buffer occupancy. *)
  let marginal = Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ] in
  let mean_epoch = 1.0 and c = 1.25 in
  let delta =
    Asymptotics.exponential_decay_rate ~marginal ~mean_epoch ~service_rate:c
  in
  let model =
    Model.create ~marginal
      ~interarrival:(Lrd_dist.Interarrival.exponential ~mean:mean_epoch)
  in
  let rng = Lrd_rng.Rng.create ~seed:13L in
  let sim = Lrd_fluidsim.Queue_sim.make ~service_rate:c ~buffer:1e9 () in
  let samples =
    Array.map
      (fun (rate, duration) ->
        ignore (Lrd_fluidsim.Queue_sim.offer sim ~rate ~duration);
        Lrd_fluidsim.Queue_sim.occupancy sim)
      (Model.sample_epochs model rng ~n:400_000)
  in
  let ccdf b =
    float_of_int
      (Array.fold_left (fun acc q -> if q > b then acc + 1 else acc) 0 samples)
    /. float_of_int (Array.length samples)
  in
  let slope = (log (ccdf 1.0) -. log (ccdf 4.0)) /. 3.0 in
  check_close ~eps:0.1 "empirical decay" delta slope

let test_exponential_decay_rate_rejects_unstable () =
  let marginal = Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ] in
  Alcotest.check_raises "unstable"
    (Invalid_argument "Asymptotics.exponential_decay_rate: unstable queue")
    (fun () ->
      ignore
        (Asymptotics.exponential_decay_rate ~marginal ~mean_epoch:1.0
           ~service_rate:0.9))

(* ------------------------------------------------------------------ *)
(* Fitting *)

let test_fitting_for_buffer () =
  let rng = Lrd_rng.Rng.create ~seed:303L in
  let trace = Lrd_trace.Video.generate_short rng ~n:16_384 in
  let model, cutoff =
    Fitting.for_buffer ~hurst:0.83 trace ~utilization:0.8
      ~buffer_seconds:0.1
  in
  Alcotest.(check bool) "finite cutoff" true
    (Float.is_finite cutoff && cutoff > 0.0);
  (* The model's covariance vanishes beyond the fitted horizon. *)
  check_close "cutoff respected" 0.0 (Model.covariance model (cutoff *. 1.01));
  Alcotest.(check bool) "correlated inside" true
    (Model.covariance model (cutoff /. 2.0) > 0.0);
  (* Marginal mean preserved. *)
  check_close ~eps:1e-9 "marginal mean" (Lrd_trace.Trace.mean trace)
    (Model.mean_rate model);
  (* The horizon grows linearly with the design buffer. *)
  let _, cutoff4 =
    Fitting.for_buffer ~hurst:0.83 trace ~utilization:0.8
      ~buffer_seconds:0.4
  in
  check_close ~eps:1e-6 "linear in buffer" (4.0 *. cutoff) cutoff4

let test_fitting_prediction_tracks_full_model () =
  let rng = Lrd_rng.Rng.create ~seed:304L in
  let trace = Lrd_trace.Video.generate_short rng ~n:16_384 in
  let utilization = 0.8 and buffer_seconds = 0.05 in
  let fitted, _ =
    Fitting.for_buffer ~hurst:0.83 trace ~utilization ~buffer_seconds
  in
  let full = Model.fit_from_trace ~hurst:0.83 trace in
  let solve m =
    (Solver.solve_utilization m ~utilization ~buffer_seconds).Solver.loss
  in
  let full_loss = solve full and fitted_loss = solve fitted in
  (* Within a factor of ~2 of the full self-similar fit at the design
     buffer (the loss-vs-cutoff curve converges hyperbolically). *)
  Alcotest.(check bool) "tracks full model" true
    (fitted_loss > full_loss /. 2.5 && fitted_loss <= full_loss *. 1.5)

(* ------------------------------------------------------------------ *)
(* Horizon *)

let test_horizon_estimate_linear_in_buffer () =
  let est b =
    Horizon.estimate ~buffer:b ~mean_epoch:0.1 ~epoch_std:0.2 ~rate_std:1.5 ()
  in
  check_close ~eps:1e-9 "linearity" (2.0 *. est 1.0) (est 2.0);
  check_close ~eps:1e-9 "linearity x5" (5.0 *. est 1.0) (est 5.0)

let test_horizon_estimate_formula () =
  (* Eq. 26 evaluated by hand. *)
  let p = 0.05 in
  let expected =
    3.0 *. 0.1
    /. (2.0 *. sqrt 2.0 *. 0.2 *. 1.5 *. Lrd_numerics.Special.erf_inv p)
  in
  check_close ~eps:1e-12 "eq. 26" expected
    (Horizon.estimate ~no_reset_probability:p ~buffer:3.0 ~mean_epoch:0.1
       ~epoch_std:0.2 ~rate_std:1.5 ())

let test_horizon_estimate_decreasing_in_p () =
  (* Tolerating a larger no-reset probability shortens the horizon. *)
  let est p =
    Horizon.estimate ~no_reset_probability:p ~buffer:1.0 ~mean_epoch:0.1
      ~epoch_std:0.2 ~rate_std:1.5 ()
  in
  Alcotest.(check bool) "decreasing" true (est 0.01 > est 0.2)

let test_horizon_estimate_for_model () =
  (* Finite-cutoff law: finite variance, positive horizon. *)
  let m = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:5.0 () in
  let h = Horizon.estimate_for_model m ~buffer:2.0 in
  Alcotest.(check bool) "finite positive" true (h > 0.0 && Float.is_finite h);
  (* Infinite-variance law: eq. 26 degenerates to zero. *)
  let inf_model = pareto_model ~theta:0.2 ~alpha:1.4 ~cutoff:Float.infinity () in
  check_close "degenerate" 0.0 (Horizon.estimate_for_model inf_model ~buffer:2.0)

let test_horizon_detect () =
  let series =
    [| (1.0, 1e-4); (2.0, 5e-4); (4.0, 7e-4); (8.0, 1e-3); (16.0, 1.05e-3) |]
  in
  (match Horizon.detect series with
  | Some ch -> check_close "detected" 8.0 ch
  | None -> Alcotest.fail "no horizon detected");
  (* A flat series detects at its first point. *)
  (match Horizon.detect [| (1.0, 1e-3); (2.0, 1e-3); (4.0, 1e-3) |] with
  | Some ch -> check_close "flat" 1.0 ch
  | None -> Alcotest.fail "flat series must detect");
  Alcotest.(check (option (float 1e-9))) "empty" None (Horizon.detect [||])

let test_horizon_detect_with_zeros () =
  (* Zeros before the flat region must not count as flat. *)
  let series = [| (1.0, 0.0); (2.0, 7e-4); (4.0, 1e-3); (8.0, 1e-3) |] in
  match Horizon.detect series with
  | Some ch -> check_close "skips zero" 4.0 ch
  | None -> Alcotest.fail "must detect"

let test_critical_time_scale () =
  (* t* = (B / drift) H / (1 - H). *)
  check_close ~eps:1e-12 "formula" (2.0 /. 0.5 *. (0.8 /. 0.2))
    (Horizon.critical_time_scale ~hurst:0.8 ~buffer:2.0 ~drift:0.5);
  (* Linear in the buffer. *)
  check_close ~eps:1e-12 "linear"
    (3.0 *. Horizon.critical_time_scale ~hurst:0.7 ~buffer:1.0 ~drift:0.4)
    (Horizon.critical_time_scale ~hurst:0.7 ~buffer:3.0 ~drift:0.4);
  (* Growing in H: stronger persistence stretches the dominant scale. *)
  Alcotest.(check bool) "grows with H" true
    (Horizon.critical_time_scale ~hurst:0.9 ~buffer:1.0 ~drift:0.4
    > Horizon.critical_time_scale ~hurst:0.6 ~buffer:1.0 ~drift:0.4);
  Alcotest.check_raises "bad hurst"
    (Invalid_argument "Horizon.critical_time_scale: hurst must lie in (0, 1)")
    (fun () ->
      ignore (Horizon.critical_time_scale ~hurst:1.0 ~buffer:1.0 ~drift:1.0))

let test_horizon_detect_rejects_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Horizon.detect: cutoffs must be strictly increasing")
    (fun () -> ignore (Horizon.detect [| (2.0, 1.0); (1.0, 1.0) |]))

let test_horizon_empirical_vs_solver () =
  (* Loss as a function of the cutoff must flatten: the detected CH at a
     small buffer should come well before the largest cutoff tried. *)
  let loss cutoff =
    let m = pareto_model ~theta:0.05 ~alpha:1.4 ~cutoff () in
    (Solver.solve m ~service_rate:1.25 ~buffer:0.5).Solver.loss
  in
  let cutoffs = [| 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |] in
  let series = Array.map (fun tc -> (tc, loss tc)) cutoffs in
  match Horizon.detect ~flatness:0.3 series with
  | Some ch -> Alcotest.(check bool) "flattens early" true (ch <= 16.0)
  | None -> Alcotest.fail "loss never flattened in the cutoff"

(* ------------------------------------------------------------------ *)
(* Properties *)

let small_marginal_gen =
  QCheck.Gen.(
    list_size (int_range 2 6) (pair (float_range 0.0 4.0) (float_range 0.1 2.0)))

let prop_bounds_always_bracket =
  QCheck.Test.make ~name:"solver bounds always bracket the midpoint" ~count:25
    (QCheck.make
       QCheck.Gen.(
         triple small_marginal_gen (float_range 0.3 3.0) (float_range 0.2 3.0)))
    (fun (points, buffer, mean_epoch) ->
      let marginal = Lrd_dist.Marginal.of_points points in
      let model =
        Model.create ~marginal
          ~interarrival:(Lrd_dist.Interarrival.exponential ~mean:mean_epoch)
      in
      let c = Lrd_dist.Marginal.mean marginal *. 1.3 +. 0.1 in
      let r =
        Solver.solve
          ~params:{ Solver.default_params with max_iterations = 2_000 }
          model ~service_rate:c ~buffer
      in
      let bracketed =
        (* The paper's protocol reports 0 when the upper bound falls
           below 1e-10, which may sit under a tiny positive lower
           bound; that case is legitimate. *)
        (r.Solver.loss = 0.0 && r.Solver.upper_bound < 1e-10)
        || (r.Solver.lower_bound <= r.Solver.loss +. 1e-12
           && r.Solver.loss <= r.Solver.upper_bound +. 1e-12)
      in
      bracketed
      && r.Solver.lower_bound >= -1e-12
      && r.Solver.upper_bound <= 1.0 +. 1e-12)

let prop_bounds_bracket_pareto_epochs =
  QCheck.Test.make ~name:"solver bounds bracket under truncated Pareto epochs"
    ~count:8
    (QCheck.make
       QCheck.Gen.(
         quad small_marginal_gen (float_range 0.05 0.5)
           (float_range 1.1 1.9) (float_range 0.5 10.0)))
    (fun (points, theta, alpha, cutoff) ->
      let marginal = Lrd_dist.Marginal.of_points points in
      let model = Model.cutoff_pareto ~marginal ~theta ~alpha ~cutoff in
      let c = (Lrd_dist.Marginal.mean marginal *. 1.25) +. 0.1 in
      let r =
        Solver.solve
          ~params:
            {
              Solver.default_params with
              max_iterations = 3_000;
              max_bins = 1_024;
            }
          model ~service_rate:c ~buffer:1.5
      in
      let bracketed =
        (r.Solver.loss = 0.0 && r.Solver.upper_bound < 1e-10)
        || (r.Solver.lower_bound <= r.Solver.loss +. 1e-12
           && r.Solver.loss <= r.Solver.upper_bound +. 1e-12)
      in
      bracketed && r.Solver.lower_bound >= -1e-12
      && r.Solver.upper_bound <= 1.0 +. 1e-12)

let prop_covariance_nonnegative_decreasing =
  QCheck.Test.make ~name:"model covariance is nonnegative and nonincreasing"
    ~count:50
    (QCheck.make
       QCheck.Gen.(
         triple (float_range 0.05 2.0) (float_range 1.05 1.95)
           (float_range 0.5 20.0)))
    (fun (theta, alpha, cutoff) ->
      let m = pareto_model ~theta ~alpha ~cutoff () in
      let ts = Lrd_numerics.Array_ops.linspace 0.0 (cutoff +. 2.0) 40 in
      let ok = ref true in
      let prev = ref Float.infinity in
      Array.iter
        (fun t ->
          let v = Model.covariance m t in
          if v < -1e-12 || v > !prev +. 1e-12 then ok := false;
          prev := v)
        ts;
      !ok)

(* ------------------------------------------------------------------ *)
(* Transform-domain superposition *)

(* The repeated-squaring kernel against the brute N-fold convolution
   chain: the same pmf convolved with itself n - 1 times through the
   schoolbook oracle [Convolution.direct]. *)
let prop_self_convolve_matches_brute =
  QCheck.Test.make ~name:"self_convolve matches brute N-fold convolution"
    ~count:60
    (QCheck.make
       ~print:QCheck.Print.(pair (list float) int)
       QCheck.Gen.(
         pair
           (list_size (int_range 2 16) (float_bound_inclusive 1.0))
           (int_range 2 64)))
    (fun (weights, n) ->
      let pmf = Array.of_list (List.map (fun w -> w +. 0.01) weights) in
      let total = Array.fold_left ( +. ) 0.0 pmf in
      Array.iteri (fun i w -> pmf.(i) <- w /. total) pmf;
      let out_len = (n * (Array.length pmf - 1)) + 1 in
      let brute = ref pmf in
      for _ = 2 to n do
        brute := Lrd_numerics.Convolution.direct !brute pmf
      done;
      let fast = Superpose.self_convolve ~pmf ~n in
      Array.length fast = out_len
      && Array.for_all2
           (fun a b -> Float.abs (a -. Float.max 0.0 b) <= 1e-12)
           fast !brute)

let test_superpose_exact_binomial () =
  (* Two on/off sources: the aggregate is Binomial(2, 0.3) on rates
     {0, 1/2, 1} after per-source renormalization. *)
  let base = Lrd_dist.Marginal.of_points [ (0.0, 0.7); (1.0, 0.3) ] in
  let m = Superpose.superpose ~method_:Superpose.Exact base ~n:2 in
  check_close ~eps:1e-12 "mean" 0.3 (Lrd_dist.Marginal.mean m);
  check_close ~eps:1e-9 "P{rate <= 0.1}" 0.49 (Lrd_dist.Marginal.cdf m 0.1);
  check_close ~eps:1e-9 "P{rate <= 0.6}" 0.91 (Lrd_dist.Marginal.cdf m 0.6);
  check_close ~eps:1e-12 "total mass" 1.0 (Lrd_dist.Marginal.cdf m 1.0)

let test_superpose_heterogeneous_mean () =
  (* Aggregate cumulants add across classes; the per-source mean of the
     mix must come out exactly, on both paths. *)
  let a = Lrd_dist.Marginal.of_points [ (0.0, 0.9); (1.0, 0.1) ] in
  let b = Lrd_dist.Marginal.of_points [ (0.0, 0.95); (16.0, 0.05) ] in
  let classes = [ (a, 60); (b, 10) ] in
  let target = ((60.0 *. 0.1) +. (10.0 *. 16.0 *. 0.05)) /. 70.0 in
  let exact = Superpose.aggregate ~method_:Superpose.Exact classes in
  let edge = Superpose.aggregate ~method_:Superpose.Edgeworth classes in
  check_close ~eps:1e-12 "exact mean" target (Lrd_dist.Marginal.mean exact);
  check_close ~eps:1e-12 "edgeworth mean" target (Lrd_dist.Marginal.mean edge)

let test_superpose_edgeworth_tail_agreement () =
  (* N = 10^4 on/off sources: the exact transform-domain aggregate
     (Binomial(10^4, 0.3)) against the Edgeworth closed form.  The
     documented tolerance (EXPERIMENTS.md): 5e-4 absolute on the
     3-sigma upper tail mass, means equal to 1e-12, stds within 1%. *)
  let base = Lrd_dist.Marginal.of_points [ (0.0, 0.7); (1.0, 0.3) ] in
  let n = 10_000 in
  Alcotest.(check bool) "cost model picks exact at 1e4" true
    (Superpose.decide [ (base, n) ] = Superpose.Exact);
  let exact = Superpose.superpose ~method_:Superpose.Exact base ~n in
  let edge = Superpose.superpose ~method_:Superpose.Edgeworth base ~n in
  check_close ~eps:1e-12 "exact mean" 0.3 (Lrd_dist.Marginal.mean exact);
  check_close ~eps:1e-12 "edgeworth mean" 0.3 (Lrd_dist.Marginal.mean edge);
  let sx = Lrd_dist.Marginal.std exact
  and se = Lrd_dist.Marginal.std edge in
  Alcotest.(check bool) "stds within 1%" true
    (Float.abs (sx -. se) <= 0.01 *. sx);
  let threshold = 0.3 +. (3.0 *. sx) in
  let tail m = 1.0 -. Lrd_dist.Marginal.cdf m threshold in
  let tx = tail exact and te = tail edge in
  Alcotest.(check bool) "tails are nontrivial" true (tx > 1e-4 && te > 1e-4);
  Alcotest.(check bool) "tail masses agree to 5e-4" true
    (Float.abs (tx -. te) <= 5e-4)

let test_superpose_cost_model () =
  let base = Lrd_dist.Marginal.of_points [ (0.0, 0.7); (1.0, 0.3) ] in
  Alcotest.(check bool) "small N exact" true
    (Superpose.decide [ (base, 1_000) ] = Superpose.Exact);
  Alcotest.(check bool) "huge N edgeworth" true
    (Superpose.decide [ (base, 100_000) ] = Superpose.Edgeworth);
  Alcotest.(check bool) "constant class exact" true
    (Superpose.decide [ (Lrd_dist.Marginal.constant 2.0, 1_000_000) ]
    = Superpose.Exact)

let test_superpose_spectrum_multiply_count () =
  (* Binary exponentiation: one squaring per bit below the msb plus one
     multiply per set bit — 1000 = 0b1111101000 costs 9 + 6 = 15. *)
  Lrd_obs.Obs.set_enabled true;
  Lrd_obs.Obs.reset ();
  let base = Lrd_dist.Marginal.of_points [ (0.0, 0.7); (1.0, 0.3) ] in
  ignore (Superpose.superpose ~method_:Superpose.Exact base ~n:1000);
  let snapshot = Lrd_obs.Obs.snapshot () in
  Lrd_obs.Obs.set_enabled false;
  Lrd_obs.Obs.reset ();
  let counter name =
    match Lrd_obs.Obs.find snapshot name with
    | Some (Lrd_obs.Obs.Counter { total; _ }) -> total
    | _ -> Alcotest.failf "counter %s missing" name
  in
  Alcotest.(check int) "spectrum multiplies" 15
    (counter "superpose/spectrum_multiplies");
  Alcotest.(check int) "exact path taken" 1
    (counter "superpose/exact_path_taken");
  Alcotest.(check int) "fast path not taken" 0
    (counter "superpose/fast_path_taken")

let test_superpose_rejects_bad_input () =
  let base = Lrd_dist.Marginal.of_points [ (0.0, 0.7); (1.0, 0.3) ] in
  Alcotest.check_raises "empty"
    (Invalid_argument "Superpose: empty class list") (fun () ->
      ignore (Superpose.aggregate []));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Superpose: negative class count") (fun () ->
      ignore (Superpose.aggregate [ (base, -1) ]));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Superpose: all class counts are zero") (fun () ->
      ignore (Superpose.aggregate [ (base, 0) ]));
  Alcotest.check_raises "n < 1"
    (Invalid_argument "Superpose.superpose: n must be >= 1") (fun () ->
      ignore (Superpose.superpose base ~n:0))

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "model",
        [
          Alcotest.test_case "hurst-alpha mapping" `Quick
            test_hurst_alpha_mapping;
          Alcotest.test_case "moments (eqs. 2, 4)" `Quick test_model_moments;
          Alcotest.test_case "covariance cutoff (eq. 8)" `Quick
            test_covariance_drops_at_cutoff;
          Alcotest.test_case "covariance closed form (eq. 8)" `Quick
            test_covariance_formula_eq8;
          Alcotest.test_case "covariance vs Monte Carlo" `Slow
            test_covariance_matches_monte_carlo;
          Alcotest.test_case "sample epochs statistics" `Slow
            test_sample_epochs_statistics;
          Alcotest.test_case "fit from trace" `Slow
            test_fit_from_trace_recovers_marginal;
        ] );
      ( "workload",
        [
          Alcotest.test_case "two-sided survival (deterministic)" `Quick
            test_workload_survival_two_sided;
          Alcotest.test_case "survival monotone and bounded" `Quick
            test_workload_survival_monotone_and_bounded;
          Alcotest.test_case "max increment" `Quick test_workload_max_increment;
          Alcotest.test_case "expected overflow: paper closed form" `Quick
            test_expected_overflow_closed_form;
          Alcotest.test_case "expected overflow: Monte Carlo" `Slow
            test_expected_overflow_monte_carlo;
          Alcotest.test_case "expected overflow monotone" `Quick
            test_expected_overflow_monotone_in_occupancy;
          Alcotest.test_case "zero-buffer loss" `Quick
            test_zero_buffer_loss_formula;
          Alcotest.test_case "discretized bins are pmfs" `Quick
            test_discretize_bins_sum_to_one;
          Alcotest.test_case "floor/ceiling stochastic ordering" `Quick
            test_discretize_stochastic_ordering;
          Alcotest.test_case "quantization allocation flat in m" `Quick
            test_quantization_allocation_flat;
        ]
        @ qcheck
            [ prop_grids_match_scalar_api; prop_grid_ladder_matches_scalar_api ]
        @ [
            Alcotest.test_case "quantization domains" `Quick
              test_quantization_domains;
          ] );
      ( "solver",
        [
          Alcotest.test_case "zero buffer closed form" `Quick
            test_solver_zero_buffer_closed_form;
          Alcotest.test_case "underloaded queue" `Quick
            test_solver_underloaded_is_zero;
          Alcotest.test_case "bounds bracket" `Quick test_solver_bounds_bracket;
          Alcotest.test_case "matches simulation (exponential)" `Slow
            test_solver_matches_simulation_exponential;
          Alcotest.test_case "matches simulation (truncated pareto)" `Slow
            test_solver_matches_simulation_truncated_pareto;
          Alcotest.test_case "loss decreasing in buffer" `Quick
            test_solver_loss_decreasing_in_buffer;
          Alcotest.test_case "loss increasing in cutoff" `Quick
            test_solver_loss_increasing_in_cutoff;
          Alcotest.test_case "loss increasing in utilization" `Quick
            test_solver_loss_increasing_in_utilization;
          Alcotest.test_case "respects max iterations" `Quick
            test_solver_respects_max_iterations;
          Alcotest.test_case "grid-cap result label" `Quick
            test_solver_grid_cap_result_label;
          Alcotest.test_case "cold restart consistent" `Quick
            test_solver_cold_restart_same_answer;
          Alcotest.test_case "negligible loss reports zero" `Quick
            test_solver_negligible_loss_reports_zero;
          Alcotest.test_case "rejects bad input" `Quick
            test_solver_rejects_bad_input;
          Alcotest.test_case "golden matrix (pre-rewrite bounds)" `Quick
            test_solver_golden_matrix;
          Alcotest.test_case "workspace step allocates nothing" `Quick
            test_workspace_step_does_not_allocate;
          Alcotest.test_case "chain pair matches sequential bitwise" `Quick
            test_chain_pair_bitwise;
          QCheck_alcotest.to_alcotest prop_chain_pair_bitwise;
          QCheck_alcotest.to_alcotest prop_wrapped_step_matches_exact;
        ] );
      ( "state",
        [
          Alcotest.test_case "grid memo per cell" `Quick
            test_state_grid_memo_per_cell;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "monotone in n (Prop II.1)" `Quick
            test_snapshots_monotone_in_n;
          Alcotest.test_case "pmfs are distributions" `Quick
            test_snapshots_pmfs_are_distributions;
          Alcotest.test_case "rejects unsorted" `Quick
            test_snapshots_reject_unsorted;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "pmfs are distributions" `Quick
            test_occupancy_pmfs_are_distributions;
          Alcotest.test_case "bound ordering" `Quick
            test_occupancy_bounds_order;
          Alcotest.test_case "brackets simulation" `Slow
            test_occupancy_brackets_simulation;
          Alcotest.test_case "zero buffer point mass" `Quick
            test_occupancy_zero_buffer_point_mass;
          Alcotest.test_case "virtual delay scaling" `Quick
            test_virtual_delay_scales;
        ] );
      ( "provision",
        [
          Alcotest.test_case "buffer for loss" `Slow
            test_provision_buffer_for_loss;
          Alcotest.test_case "buffer unachievable for LRD" `Slow
            test_provision_buffer_unachievable;
          Alcotest.test_case "utilization for loss" `Slow
            test_provision_utilization_for_loss;
          Alcotest.test_case "streams for loss" `Slow
            test_provision_streams_for_loss;
          Alcotest.test_case "rejects bad target" `Quick
            test_provision_rejects_bad_target;
        ] );
      ( "asymptotics",
        [
          Alcotest.test_case "kappa" `Quick test_kappa_values;
          Alcotest.test_case "fBm Weibull shape" `Quick test_fbm_tail_shape;
          Alcotest.test_case "on/off hyperbolic shape" `Quick
            test_onoff_tail_shape;
          Alcotest.test_case "decay rate closed form" `Quick
            test_exponential_decay_rate_known_case;
          Alcotest.test_case "decay rate vs simulation" `Slow
            test_exponential_decay_rate_matches_simulation;
          Alcotest.test_case "rejects unstable" `Quick
            test_exponential_decay_rate_rejects_unstable;
        ] );
      ( "fitting",
        [
          Alcotest.test_case "for_buffer structure" `Slow
            test_fitting_for_buffer;
          Alcotest.test_case "prediction tracks full model" `Slow
            test_fitting_prediction_tracks_full_model;
        ] );
      ( "horizon",
        [
          Alcotest.test_case "linear in buffer" `Quick
            test_horizon_estimate_linear_in_buffer;
          Alcotest.test_case "eq. 26 by hand" `Quick
            test_horizon_estimate_formula;
          Alcotest.test_case "decreasing in p" `Quick
            test_horizon_estimate_decreasing_in_p;
          Alcotest.test_case "estimate for model" `Quick
            test_horizon_estimate_for_model;
          Alcotest.test_case "detect" `Quick test_horizon_detect;
          Alcotest.test_case "detect skips zeros" `Quick
            test_horizon_detect_with_zeros;
          Alcotest.test_case "critical time scale" `Quick
            test_critical_time_scale;
          Alcotest.test_case "detect rejects unsorted" `Quick
            test_horizon_detect_rejects_unsorted;
          Alcotest.test_case "empirical flattening (solver)" `Slow
            test_horizon_empirical_vs_solver;
        ] );
      ( "superpose",
        qcheck [ prop_self_convolve_matches_brute ]
        @ [
            Alcotest.test_case "exact binomial (n = 2)" `Quick
              test_superpose_exact_binomial;
            Alcotest.test_case "heterogeneous mean restoration" `Quick
              test_superpose_heterogeneous_mean;
            Alcotest.test_case "edgeworth vs exact tail (N = 1e4)" `Slow
              test_superpose_edgeworth_tail_agreement;
            Alcotest.test_case "cost model" `Quick test_superpose_cost_model;
            Alcotest.test_case "spectrum multiply count" `Quick
              test_superpose_spectrum_multiply_count;
            Alcotest.test_case "rejects bad input" `Quick
              test_superpose_rejects_bad_input;
          ] );
      ( "properties",
        qcheck
          [
            prop_bounds_always_bracket;
            prop_bounds_bracket_pareto_epochs;
            prop_covariance_nonnegative_decreasing;
          ] );
    ]
