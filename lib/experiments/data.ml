type t = {
  quick : bool;
  seed : int64;
  jobs : int;
  superpose : Lrd_core.Superpose.method_;
  pool : Lrd_parallel.Pool.t option;
  lock : Mutex.t;
      (* [Lazy.force] is not domain-safe (a second forcer raises
         [Lazy.Undefined]), so every lazy below is forced under this
         lock.  Cell functions running on the pool may therefore share
         the context as long as they only read through the accessors. *)
  mtv : Lrd_trace.Trace.t Lazy.t;
  bellcore : Lrd_trace.Trace.t Lazy.t;
  mtv_marginal : Lrd_dist.Marginal.t Lazy.t;
  bc_marginal : Lrd_dist.Marginal.t Lazy.t;
  mtv_mean_epoch : float Lazy.t;
  bc_mean_epoch : float Lazy.t;
}

let mtv_hurst = 0.83
let bc_hurst = 0.9
let mtv_utilization = 0.8
let bc_utilization = 0.4

let pool_of_jobs jobs =
  match jobs with
  | None -> None
  | Some j ->
      if j < 0 then
        invalid_arg
          (Printf.sprintf "Data.create: jobs must be nonnegative, got %d" j)
      else if j = 0 then Some (Lrd_parallel.Pool.create ())
      else if j = 1 then None
      else Some (Lrd_parallel.Pool.create ~workers:(j - 1) ())

let create ?(seed = 20260705L) ?jobs ?(superpose = Lrd_core.Superpose.Auto)
    ~quick () =
  let pool = pool_of_jobs jobs in
  let rng = Lrd_rng.Rng.create ~seed in
  let mtv_rng = Lrd_rng.Rng.split rng in
  let bc_rng = Lrd_rng.Rng.split rng in
  let mtv =
    lazy
      (if quick then Lrd_trace.Video.generate_short mtv_rng ~n:16_384
       else Lrd_trace.Video.generate mtv_rng)
  in
  let bellcore =
    lazy
      (if quick then Lrd_trace.Ethernet.generate_short bc_rng ~n:32_768
       else Lrd_trace.Ethernet.generate bc_rng)
  in
  let marginal trace =
    lazy (Lrd_trace.Histogram.marginal_of_trace ~bins:50 (Lazy.force trace))
  in
  let epoch trace =
    lazy (Lrd_trace.Epochs.mean_epoch_duration ~bins:50 (Lazy.force trace))
  in
  {
    quick;
    seed;
    jobs = (match pool with None -> 1 | Some p -> Lrd_parallel.Pool.parallelism p);
    superpose;
    pool;
    lock = Mutex.create ();
    mtv;
    bellcore;
    mtv_marginal = marginal mtv;
    bc_marginal = marginal bellcore;
    mtv_mean_epoch = epoch mtv;
    bc_mean_epoch = epoch bellcore;
  }

let quick t = t.quick
let seed t = t.seed
let gap_policy _ = Sweep.Uniform
let superpose_method t = t.superpose
let pool t = t.pool

let teardown t =
  match t.pool with None -> () | Some p -> Lrd_parallel.Pool.shutdown p

let force t l = Mutex.protect t.lock (fun () -> Lazy.force l)
let mtv t = force t t.mtv
let bellcore t = force t t.bellcore
let mtv_marginal t = force t t.mtv_marginal
let bc_marginal t = force t t.bc_marginal
let mtv_mean_epoch t = force t t.mtv_mean_epoch
let bc_mean_epoch t = force t t.bc_mean_epoch

let theta_for ~mean_epoch ~hurst =
  Lrd_dist.Interarrival.theta_for_mean_epoch ~mean_epoch
    ~alpha:(Lrd_core.Model.alpha_of_hurst hurst)
    ()

let mtv_theta t = theta_for ~mean_epoch:(mtv_mean_epoch t) ~hurst:mtv_hurst
let bc_theta t = theta_for ~mean_epoch:(bc_mean_epoch t) ~hurst:bc_hurst

let mtv_model t ~cutoff =
  Lrd_core.Model.of_hurst ~marginal:(mtv_marginal t) ~hurst:mtv_hurst
    ~theta:(mtv_theta t) ~cutoff

let bc_model t ~cutoff =
  Lrd_core.Model.of_hurst ~marginal:(bc_marginal t) ~hurst:bc_hurst
    ~theta:(bc_theta t) ~cutoff

let solver_params t =
  let d = Lrd_core.Solver.default_params in
  if t.quick then
    {
      d with
      Lrd_core.Solver.max_bins = 4096;
      max_iterations = 40_000;
    }
  else d

let manifest_fields t =
  let open Lrd_obs.Json in
  let p = solver_params t in
  [
    (* The seed prints as a string: an int64 can exceed a JSON-safe
       double and must survive the round-trip exactly. *)
    ("seed", Str (Int64.to_string t.seed));
    ("quick", Bool t.quick);
    ("jobs", Num (float_of_int t.jobs));
    ( "superpose",
      Str
        (match t.superpose with
        | Lrd_core.Superpose.Exact -> "exact"
        | Lrd_core.Superpose.Edgeworth -> "edgeworth"
        | Lrd_core.Superpose.Auto -> "auto") );
    (* How cell randomness derives from the seed — fixed by the
       determinism contract, recorded so a manifest is self-describing. *)
    ("rng_splits", Str "per-cell Rng.split_indexed on the cell index");
    ( "solver",
      Obj
        [
          ("initial_bins", Num (float_of_int p.Lrd_core.Solver.initial_bins));
          ("max_bins", Num (float_of_int p.Lrd_core.Solver.max_bins));
          ("tolerance", Num p.Lrd_core.Solver.tolerance);
          ("negligible_loss", Num p.Lrd_core.Solver.negligible_loss);
          ( "max_iterations",
            Num (float_of_int p.Lrd_core.Solver.max_iterations) );
          ("check_every", Num (float_of_int p.Lrd_core.Solver.check_every));
          ("stall_factor", Num p.Lrd_core.Solver.stall_factor);
          ("warm_restart", Bool p.Lrd_core.Solver.warm_restart);
        ] );
  ]
  @ Sweep.manifest_fields ~quick:t.quick ()
