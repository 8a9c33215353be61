(* The traced run: per-layer metrics, timed by the benchmark around its
   own calls into each layer's public functions, plus the counters the
   library keeps in Obs.  No span is added inside the library.

   Sections, each run once whatever the workload (so every metric is
   defined on every workload), with the metric prefixes they supply:
   - setup: fresh contexts forced one ingredient at a time [trace.];
   - fig8's inputs: external shuffles and fluid-queue runs [trace.,
     fluidsim.];
   - ext-packet's 12 (buffer, packet size) cells on a trace prefix
     [packet.];
   - registry: one pass of every entry [experiment.], with each
     entry's output digest;
   - surfaces: the benchmark's own scheduled sweeps at jobs 1 and 2
     [sweep., pool., superpose.];
   - replay: seeded solve-cold inputs re-built level by level
     [workload., solver.workspace_make_s, solver.step_us.].
   The named workload is then run once untraced and once traced; its
   traced pass supplies the counters [workload_grid., workload_cache.,
   fft., solver., gc.] and the trace overhead [obs.]. *)

module E = Lrd_experiments
module D = E.Data
module Solver = Lrd_core.Solver
module Workload = Lrd_core.Workload
module Model = Lrd_core.Model

type t = {
  mutable metrics : (string * float * string) list;
  mutable notes : string list;
  mutable attempted : int;
  mutable failed : int;
}

let add t name value unit = t.metrics <- (name, value, unit) :: t.metrics
let note t line = t.notes <- line :: t.notes

let check t what why =
  t.attempted <- t.attempted + 1;
  if why <> [] then begin
    t.failed <- t.failed + 1;
    note t (Printf.sprintf "FAILED %s: %s" what (String.concat "; " why))
  end

(* ------------------------------------------------------------------ *)

let setup_section t =
  let forced =
    List.init 3 (fun _ ->
        let ctx = D.create ~quick:false () in
        let time f = snd (Util.timed f) in
        let video = time (fun () -> ignore (D.mtv ctx)) in
        let ethernet = time (fun () -> ignore (D.bellcore ctx)) in
        let marginals =
          time (fun () ->
              ignore (D.mtv_marginal ctx);
              ignore (D.bc_marginal ctx))
        in
        let epochs =
          time (fun () ->
              ignore (D.mtv_mean_epoch ctx);
              ignore (D.bc_mean_epoch ctx))
        in
        [ video; ethernet; marginals; epochs ])
  in
  List.iteri
    (fun i name ->
      add t name (Util.median (List.map (fun l -> List.nth l i) forced)) "s")
    [ "trace.video_s"; "trace.ethernet_s"; "trace.marginal_s"; "trace.epochs_s" ]

(* Fig. 8's computation, sequentially: one external shuffle of the
   Bellcore trace per cutoff, then the fluid queue over every
   (shuffled trace, buffer) cell. *)
let fig8_section t ctx =
  let trace = D.bellcore ctx in
  let rng = Lrd_rng.Rng.create ~seed:(Int64.add (D.seed ctx) 7L) in
  let shuffle = Util.Acc.create () and run = Util.Acc.create () in
  let columns =
    Array.mapi
      (fun i (_, block) ->
        match block with
        | None -> trace
        | Some b ->
            Util.Acc.time shuffle (fun () ->
                Lrd_trace.Shuffle.external_shuffle
                  (Lrd_rng.Rng.split_indexed rng ~index:i)
                  trace ~block:b))
      (E.Sweep.shuffle_blocks_of_cutoffs trace (E.Sweep.cutoffs ~quick:false ()))
  in
  let c =
    Lrd_trace.Trace.service_rate_for_utilization trace
      ~utilization:D.bc_utilization
  in
  Array.iter
    (fun shuffled ->
      Array.iter
        (fun buffer_seconds ->
          let sim =
            Lrd_fluidsim.Queue_sim.make ~service_rate:c
              ~buffer:(buffer_seconds *. c) ()
          in
          let loss =
            Lrd_fluidsim.Queue_sim.loss_rate
              (Util.Acc.time run (fun () ->
                   Lrd_fluidsim.Queue_sim.run_trace sim shuffled))
          in
          check t "fig8 fluid loss"
            (Checks.failures
               [ (loss >= 0.0 && loss <= 1.0, Printf.sprintf "loss %g" loss) ]))
        (E.Sweep.buffers ~quick:false ()))
    columns;
  add t "trace.shuffle_s" (Util.Acc.total shuffle) "s";
  add t "fluidsim.run_trace_s" (Util.Acc.total run) "s"

(* ext-packet's 4 buffers x 3 packet sizes on the first [packet_frames]
   frames of the video trace.  Each cell first consumes the arrivals
   alone from a copy of the generator, then runs the queue on the same
   stream: the queue's share is the difference. *)
let packet_frames = 4096

let packet_section t ctx =
  let trace = Lrd_trace.Trace.sub (D.mtv ctx) ~pos:0 ~len:packet_frames in
  let c =
    Lrd_trace.Trace.service_rate_for_utilization trace
      ~utilization:D.mtv_utilization
  in
  let rng = Lrd_rng.Rng.create ~seed:(Int64.add (D.seed ctx) 81L) in
  let arrivals = ref 0.0 and total = ref 0.0 and packets = ref 0 in
  List.iter
    (fun buffer_seconds ->
      List.iter
        (fun packet_size ->
          let count, dt =
            Util.timed (fun () ->
                Lrd_packet.Arrivals.count
                  (Lrd_packet.Arrivals.poissonize (Lrd_rng.Rng.copy rng) trace
                     ~packet_size))
          in
          let stats, dq =
            Util.timed (fun () ->
                Lrd_packet.Packet_queue.run ~service_rate:c
                  ~buffer:(buffer_seconds *. c)
                  (Lrd_packet.Arrivals.poissonize rng trace ~packet_size))
          in
          let offered = stats.Lrd_packet.Packet_queue.offered_packets in
          arrivals := !arrivals +. dt;
          total := !total +. dq;
          packets := !packets + offered;
          check t "packet cell"
            (Checks.failures
               [ (offered = count, "queue saw a different stream than the arrivals") ]))
        [ 0.012; 0.004; 0.001 ])
    [ 0.005; 0.02; 0.1; 0.5 ];
  add t "packet.arrivals_s" !arrivals "s";
  add t "packet.queue_s" (!total -. !arrivals) "s";
  add t "packet.packets" (float_of_int !packets) "count";
  add t "packet.ns_per_packet" (1e9 *. !total /. float_of_int !packets) "ns"

(* abl-solver prints each variant's wall-clock seconds as its last
   column; that column is masked out of the digest. *)
let mask id text =
  if id <> E.Abl_solver.id then text
  else
    String.split_on_char '\n' text
    |> List.map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | first :: _ when String.contains first '+' -> (
               match String.rindex_opt line ' ' with
               | Some i -> String.sub line 0 i ^ " *"
               | None -> line)
           | _ -> line)
    |> String.concat "\n"

(* One entry's printed output, digested after masking, or the exception
   it raised. *)
let run_entry ctx (e : E.Registry.entry) =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  match
    e.E.Registry.run ctx fmt;
    Format.pp_print_flush fmt ()
  with
  | () -> Ok (Util.md5 (mask e.E.Registry.id (Buffer.contents buf)))
  | exception ex -> Error (Printexc.to_string ex)

(* Every registry entry once, in registry order, on fresh contexts
   (jobs = 1).  ext-packet runs on the quick context: at full scale it
   alone takes about 48 s, longer than a whole run may. *)
let registry_pass () =
  let full, _ = Workloads.setup () in
  let quick, _ = Workloads.setup ~quick:true () in
  List.map
    (fun (e : E.Registry.entry) ->
      let id = e.E.Registry.id in
      let ctx = if id = E.Ext_packet.id then quick else full in
      (id, Util.timed (fun () -> run_entry ctx e)))
    E.Registry.all

(* One registry pass: per-entry seconds and output digests (masked, so
   two runs of the same code print the same digests), failing entries
   counted. *)
let registry_section t =
  let entries = registry_pass () in
  List.iter
    (fun (id, (out, dt)) ->
      add t ("experiment." ^ id ^ "_s") dt "s";
      note t
        (Printf.sprintf "digest %-18s %s" id
           (match out with Ok d -> d | Error _ -> "raised"));
      check t id (match out with Ok _ -> [] | Error ex -> [ "raised " ^ ex ]))
    entries

(* The benchmark's own scheduled sweeps of the seven surfaces on a fresh
   context, traced. *)
let sweeps ~jobs =
  let ctx, _ = Workloads.setup ~jobs () in
  Fun.protect
    ~finally:(fun () -> D.teardown ctx)
    (fun () ->
      let aggregate = Util.Acc.create () and state = Util.Acc.create () in
      let scheduled = Util.Acc.create () in
      let results, wall, snap =
        Util.with_telemetry (fun () ->
            List.map
              (fun spec ->
                ( spec,
                  Util.Acc.time scheduled (fun () -> Surfaces.run ~state ctx spec) ))
              (Surfaces.specs ~aggregate ctx))
      in
      (results, wall, snap, aggregate, state, scheduled))

(* Results must not depend on the pool size; the jobs-2 pass supplies
   the sweep, pool and superposition figures. *)
let surfaces_section t =
  let r1, wall1, _, _, _, _ = sweeps ~jobs:1 in
  let r2, wall2, snap, aggregate, state, scheduled =
    sweeps ~jobs:Workloads.surfaces_jobs
  in
  List.iter2
    (fun (spec, a) (_, b) ->
      List.iter
        (fun (ix, iy) ->
          let r = b.(iy).(ix) in
          check t
            (Printf.sprintf "%s[%d][%d]" spec.Surfaces.id iy ix)
            (Workloads.cell_checks spec ~x:spec.Surfaces.xs.(ix)
               ~y:spec.Surfaces.ys.(iy) r
            @ if compare a.(iy).(ix) r = 0 then [] else [ "jobs 1 and 2 differ" ]))
        (Workloads.coords spec))
    r1 r2;
  let count name = float_of_int (Util.counter snap name) in
  add t "sweep.state_create_s" (Util.Acc.total state) "s";
  add t "sweep.scheduled_s" (Util.Acc.total scheduled) "s";
  add t "sweep.schedule_rounds" (count "sweep/schedule_rounds") "count";
  add t "sweep.warm_starts" (count "sweep/warm_starts") "count";
  add t "sweep.iterations_saved" (count "sweep/iterations_saved") "count";
  add t "pool.tasks_run" (count "pool/tasks_run") "count";
  add t "pool.tasks_stolen" (count "pool/tasks_stolen") "count";
  add t "pool.queue_wait_s" (Util.histogram_sum snap "pool/queue_wait_seconds") "s";
  add t "pool.idle_s" (Util.histogram_sum snap "pool/idle_seconds") "s";
  add t "pool.speedup" (wall1 /. wall2) "ratio";
  add t "superpose.aggregate_s" (Util.Acc.total aggregate) "s";
  add t "superpose.spectrum_multiplies" (count "superpose/spectrum_multiplies") "count";
  note t
    (Printf.sprintf "surfaces sweeps: jobs 1 %.4f s, jobs %d %.4f s" wall1
       Workloads.surfaces_jobs wall2)

(* Seeded solve-cold inputs, each solved, then rebuilt level by level
   along the refinement ladder its solve climbed: quantization on one
   fresh memoizing workload (as the solve's own), Workspace.make on a
   second one with the same history, so plan construction is make's time
   minus the quantization it repeats (derived); then [steps] chain steps
   at each level. *)
let replay_inputs = 48
let steps = 16

let ladder =
  List.init 8 (fun k -> Solver.default_params.Solver.initial_bins lsl k)

let replay_section t ~seed ctx =
  let inputs = Array.sub (Workloads.solve_cold_inputs ~seed) 0 replay_inputs in
  let discretize = ref 0.0 and overflow = ref 0.0 and plans = ref 0.0 in
  let step_us = Hashtbl.create 8 in
  let level (w, w2, buffer) m =
    let _, dd = Util.timed (fun () -> Workload.discretize w ~buffer ~bins:m) in
    let _, dov =
      Util.timed (fun () -> Workload.overflow_table w ~buffer ~bins:m)
    in
    let ws, dm = Util.timed (fun () -> Solver.Workspace.make w2 ~buffer ~m) in
    let _, ds =
      Util.timed (fun () ->
          for _ = 1 to steps do
            Solver.Workspace.step ws
          done)
    in
    discretize := !discretize +. dd;
    overflow := !overflow +. dov;
    plans := !plans +. (dm -. dd -. dov);
    Hashtbl.replace step_us m
      ((1e6 *. ds /. float_of_int steps)
      :: Option.value ~default:[] (Hashtbl.find_opt step_us m))
  in
  let workloads i =
    let model = Inputs.model ctx i in
    let c =
      Model.service_rate_for_utilization model ~utilization:i.Inputs.utilization
    in
    let fresh () = Workload.create ~memoize:true model ~service_rate:c in
    (fresh (), fresh (), i.Inputs.buffer_seconds *. c)
  in
  Array.iter
    (fun i ->
      let r = Inputs.solve ctx i in
      if r.Solver.iterations > 0 then
        let ws = workloads i in
        List.iter (fun m -> if m <= r.Solver.bins then level ws m) ladder)
    inputs;
  (* Levels no replayed solve reached are stepped on the first input's
     workload, so every level reports. *)
  let unvisited = List.filter (fun m -> not (Hashtbl.mem step_us m)) ladder in
  if unvisited <> [] then begin
    let ws = workloads inputs.(0) in
    List.iter (level ws) ladder;
    note t
      (Printf.sprintf "solver.step_us levels no replayed solve reached: %s"
         (String.concat " " (List.map string_of_int unvisited)))
  end;
  add t "workload.discretize_s" !discretize "s";
  add t "workload.overflow_table_s" !overflow "s";
  add t "solver.workspace_make_s" !plans "s";
  List.iter
    (fun m ->
      add t
        (Printf.sprintf "solver.step_us.m%d" m)
        (Util.median (Hashtbl.find step_us m))
        "us")
    ladder

(* The named workload once untraced and once traced: the traced pass's
   counters, GC figures and overhead. *)
let workload_section t name ~seed =
  let pass () =
    match name with
    | "surfaces" -> ignore (Workloads.surfaces_pass ())
    | _ ->
        let ctx, _ = Workloads.setup () in
        ignore (Workloads.solve_all ctx (Workloads.solve_cold_inputs ~seed))
  in
  let _, untraced = Util.timed pass in
  let ((), _, minor, major), traced, snap =
    Util.with_telemetry (fun () -> Util.gc_timed pass)
  in
  let count name = float_of_int (Util.counter snap name) in
  let lookups = count "workload_cache/lookups" in
  add t "workload_grid.points_fresh" (count "workload_grid/points_fresh") "count";
  add t "workload_grid.points_reused" (count "workload_grid/points_reused") "count";
  add t "workload_cache.hit_rate"
    (if lookups > 0.0 then count "workload_cache/hits" /. lookups else 0.0)
    "ratio";
  add t "fft.real_plans_built" (count "fft/real_plans_built") "count";
  add t "fft.real_plan_cache_hits" (count "fft/real_plan_cache_hits") "count";
  add t "solver.iterations" (count "solver/iterations") "count";
  add t "solver.refinements" (count "solver/refinements") "count";
  add t "solver.warm_restarts" (count "solver/warm_restarts") "count";
  add t "gc.minor_words" minor "words";
  add t "gc.major_collections" (float_of_int major) "count";
  add t "obs.untraced_wall_s" untraced "s";
  add t "obs.traced_wall_s" traced "s";
  add t "obs.trace_overhead_frac" ((traced -. untraced) /. untraced) "ratio";
  note t
    (Printf.sprintf "%s pass: untraced %.4f s, traced %.4f s" name untraced
       traced)

let run name ~seed =
  let t = { metrics = []; notes = []; attempted = 0; failed = 0 } in
  setup_section t;
  let ctx, _ = Workloads.setup () in
  fig8_section t ctx;
  packet_section t ctx;
  registry_section t;
  surfaces_section t;
  replay_section t ~seed ctx;
  workload_section t name ~seed;
  (t.attempted, t.failed, List.rev t.notes, List.rev t.metrics)
