(* The domain pool's scheduling/determinism contract, the indexed rng
   splitting it relies on, and the cross-cell workload cache: parallel
   sweeps must be byte-identical to sequential ones, and caching /
   memoization must never change a computed value. *)

open Lrd_parallel

let render f =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Pool mechanics *)

let worker_counts = [ 0; 1; 2; 3 ]

let test_map_matches_sequential () =
  let xs = Array.init 97 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) xs in
  List.iter
    (fun workers ->
      Pool.with_pool ~workers (fun pool ->
          let got = Pool.map pool (fun i -> i * i) xs in
          Alcotest.(check (array int))
            (Printf.sprintf "map, %d workers" workers)
            expected got))
    worker_counts

let test_map_empty () =
  Pool.with_pool ~workers:2 (fun pool ->
      Alcotest.(check (array int))
        "empty input" [||]
        (Pool.map pool (fun i -> i) [||]))

let test_map2_grid_orientation () =
  let xs = [| "a"; "b"; "c" |] and ys = [| 1; 2 |] in
  let f x y = Printf.sprintf "%s%d" x y in
  let expected = Array.map (fun y -> Array.map (fun x -> f x y) xs) ys in
  List.iter
    (fun workers ->
      Pool.with_pool ~workers (fun pool ->
          let got = Pool.map2_grid pool ~xs ~ys ~f in
          Alcotest.(check (array (array string)))
            (Printf.sprintf "grid, %d workers" workers)
            expected got))
    worker_counts

exception Boom of int

let test_exception_propagates_and_pool_survives () =
  Pool.with_pool ~workers:2 (fun pool ->
      (try
         ignore
           (Pool.map pool
              (fun i -> if i = 13 then raise (Boom i) else i)
              (Array.init 64 (fun i -> i)));
         Alcotest.fail "expected Boom"
       with Boom 13 -> ());
      (* The same pool keeps working after a failed task set. *)
      let xs = Array.init 32 (fun i -> i) in
      Alcotest.(check (array int))
        "pool reusable after exception"
        (Array.map (fun i -> i + 1) xs)
        (Pool.map pool (fun i -> i + 1) xs))

let test_shutdown_idempotent_and_final () =
  let pool = Pool.create ~workers:1 () in
  Alcotest.(check int) "parallelism" 2 (Pool.parallelism pool);
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.iter: pool has been shut down") (fun () ->
      ignore (Pool.map pool (fun i -> i) [| 1 |]))

(* Every participant claims indices from one shared counter: each index
   runs exactly once, and a caller without workers runs them in order. *)
let test_iter_claims_every_index_once () =
  let n = 10_000 in
  List.iter
    (fun workers ->
      Pool.with_pool ~workers (fun pool ->
          let counts = Array.init n (fun _ -> Atomic.make 0) in
          let order = ref [] in
          Pool.iter pool
            (fun i ->
              Atomic.incr counts.(i);
              if workers = 0 then order := i :: !order)
            n;
          Array.iteri
            (fun i c ->
              if Atomic.get c <> 1 then
                Alcotest.failf "%d workers: index %d ran %d times" workers i
                  (Atomic.get c))
            counts;
          if workers = 0 then
            Alcotest.(check (list int))
              "0 workers: index order" (List.init n Fun.id) (List.rev !order)))
    [ 0; 1; 3 ]

(* A task that waits for the others must not keep them from running:
   the other participant goes on claiming while it waits. *)
let test_waiting_task_does_not_strand_the_rest () =
  let n = 64 in
  let completed = Atomic.make 0 in
  Pool.with_pool ~workers:1 (fun pool ->
      Pool.iter pool
        (fun i ->
          if i = 0 then begin
            let t0 = Unix.gettimeofday () in
            while Atomic.get completed < n - 1 do
              if Unix.gettimeofday () -. t0 > 5.0 then
                Alcotest.failf "task 0 waited 5 s; %d of %d others ran"
                  (Atomic.get completed) (n - 1);
              Domain.cpu_relax ()
            done
          end
          else Atomic.incr completed)
        n)

(* ------------------------------------------------------------------ *)
(* Pool.both: two-party fork-join on a crew member *)

let multicore = Domain.recommended_domain_count () > 1
let self () = (Domain.self () :> int)

(* The domains [both] ran its two thunks on. *)
let both_on () =
  let f_on = ref (-1) and g_on = ref (-1) in
  Pool.both (fun () -> f_on := self ()) (fun () -> g_on := self ());
  (!f_on, !g_on)

let test_both_runs_both () =
  let f_on, g_on = both_on () in
  Alcotest.(check int) "f on the caller" (self ()) f_on;
  Alcotest.(check bool)
    "g on a crew member (on the caller with one core)" multicore
    (g_on <> self ())

(* Each side's exception surfaces only after the other side finished;
   when both raise, the caller's wins. *)
let test_both_reraises () =
  let slow_flag () =
    let finished = ref false in
    ( finished,
      fun () ->
        Unix.sleepf 0.02;
        finished := true )
  in
  let expect name ~f ~g ~raised finished =
    (match Pool.both f g with
    | () -> Alcotest.failf "%s: expected an exception" name
    | exception Boom i -> Alcotest.(check int) (name ^ ": which") raised i);
    Alcotest.(check bool) (name ^ ": other side finished") true !finished
  in
  let finished, slow = slow_flag () in
  expect "caller raises" ~f:(fun () -> raise (Boom 1)) ~g:slow ~raised:1
    finished;
  let finished, slow = slow_flag () in
  expect "helper raises" ~f:slow ~g:(fun () -> raise (Boom 2)) ~raised:2
    finished;
  let g_done = ref false in
  expect "both raise"
    ~f:(fun () -> raise (Boom 3))
    ~g:(fun () ->
      g_done := true;
      raise (Boom 4))
    ~raised:3 g_done;
  (* The member survives its job's exception. *)
  let f_on, _ = both_on () in
  Alcotest.(check int) "usable afterwards" (self ()) f_on

let check_on name domain (f_on, g_on) =
  Alcotest.(check (pair int int)) name (domain, domain) (f_on, g_on)

(* Spin until [ready ()], for five seconds at most; false on timeout. *)
let spin_until ready =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    ready ()
    || (Unix.gettimeofday () -. t0 < 5.0 && (Domain.cpu_relax (); go ()))
  in
  go ()

(* A two-party barrier: true once the other party has arrived too. *)
let barrier () =
  let arrived = Atomic.make 0 in
  fun () ->
    Atomic.incr arrived;
    spin_until (fun () -> Atomic.get arrived >= 2)

let test_both_sequential_cases () =
  (* Nested, from either side. *)
  let inner = ref (-1, -1) in
  Pool.both (fun () -> inner := both_on ()) ignore;
  check_on "nested in the caller's thunk" (self ()) !inner;
  let helper = ref (-1) in
  Pool.both ignore (fun () ->
      helper := self ();
      inner := both_on ());
  check_on "nested in the helper's thunk" !helper !inner;
  (* From another domain while this one holds the crew. *)
  let other = ref (-1, (-1, -1)) in
  Pool.both
    (fun () ->
      other := Domain.join (Domain.spawn (fun () -> (self (), both_on ()))))
    ignore;
  check_on "helper busy" (fst !other) (snd !other)

(* Two tasks held together by barriers around their [both]: neither
   participant is out of tasks, so nobody takes [g] and each pair runs
   on its task's domain. *)
let test_both_in_busy_tasks () =
  if multicore then
    Pool.with_pool ~workers:1 (fun pool ->
        let before = barrier () and after = barrier () in
        let ran =
          Pool.map pool
            (fun () ->
              let met = before () in
              let on = both_on () in
              (met && after (), self (), on))
            [| (); () |]
        in
        Array.iter
          (fun (met, d, on) ->
            Alcotest.(check bool) "tasks held together" true met;
            check_on "partner still in its task" d on)
          ran)

(* Task 1 of a two-task set, once task 0 is done: its participant, or
   a member that joined late, lends itself.  [body] runs inside task 1
   and returns its domain with its own findings. *)
let in_lone_task body =
  Pool.with_pool ~workers:1 (fun pool ->
      match
        Pool.map pool
          (fun i -> if i = 1 then Some (body ()) else None)
          [| 0; 1 |]
      with
      | [| None; Some r |] -> r
      | _ -> assert false)

(* [f] waits until [g] has started: [g] runs on the other domain. *)
let test_both_lends_to_a_finished_partner () =
  if multicore then begin
    let task, (started, g_on) =
      in_lone_task (fun () ->
          let g_on = Atomic.make (-1) in
          let started = ref false in
          Pool.both
            (fun () -> started := spin_until (fun () -> Atomic.get g_on >= 0))
            (fun () -> Atomic.set g_on (self ()));
          (self (), (!started, Atomic.get g_on)))
    in
    Alcotest.(check bool) "g started while f waited" true started;
    Alcotest.(check bool) "g on the other domain" true (g_on <> task)
  end

(* A lent [g] that raises: its exception surfaces after [f] finished,
   and the next lent [both] is clean. *)
let test_lent_both_reraises () =
  if multicore then begin
    let task, (raised, f_done, g_on, again) =
      in_lone_task (fun () ->
          let g_on = Atomic.make (-1) and f_done = ref false in
          let raised =
            match
              Pool.both
                (fun () ->
                  ignore (spin_until (fun () -> Atomic.get g_on >= 0));
                  Unix.sleepf 0.01;
                  f_done := true)
                (fun () ->
                  Atomic.set g_on (self ());
                  raise (Boom 5))
            with
            | () -> -1
            | exception Boom i -> i
          in
          let again = Atomic.make false in
          Pool.both
            (fun () -> ignore (spin_until (fun () -> Atomic.get again)))
            (fun () -> Atomic.set again true);
          (self (), (raised, !f_done, Atomic.get g_on, Atomic.get again)))
    in
    Alcotest.(check int) "g's exception" 5 raised;
    Alcotest.(check bool) "after f finished" true f_done;
    Alcotest.(check bool)
      "g on the other domain" true
      (g_on <> task && g_on >= 0);
    Alcotest.(check bool) "usable afterwards" true again
  end

(* The domains other than this one that ran [pool]'s tasks: sixteen
   tasks of 2 ms, so a member that is up takes some. *)
let task_domains pool =
  let ran = Array.make 16 (-1) in
  Pool.iter pool
    (fun i ->
      ran.(i) <- self ();
      Unix.sleepf 0.002)
    16;
  List.filter (fun d -> d <> self ()) (List.sort_uniq compare (Array.to_list ran))

(* Retire every parked member, so the next job spawns the only one. *)
let retire_crew () = Pool.shutdown (Pool.create ())

(* A host that stalls this domain past the idle period between two jobs
   retires a member legitimately, so the checks that a member is kept
   allow a few tries. *)
let within_tries check = check () || check () || check ()

let test_crew_retires_and_respawns () =
  if multicore then begin
    retire_crew ();
    let pool = Pool.create ~workers:1 () in
    let kept () =
      let _, h1 = both_on () in
      let _, h2 = both_on () in
      h1 = h2 && task_domains pool = [ h1 ]
    in
    Alcotest.(check bool) "kept between jobs of both kinds" true
      (within_tries kept);
    let _, h1 = both_on () in
    (* Twice the idle period: the member has exited. *)
    Unix.sleepf 1.0;
    let _, h3 = both_on () in
    Alcotest.(check bool) "a fresh member for both" true
      (h3 <> h1 && h3 <> self ());
    Unix.sleepf 1.0;
    let fresh () =
      let ran = task_domains pool in
      ran <> [] && not (List.mem h3 ran)
    in
    Alcotest.(check bool) "a fresh member for iter" true (within_tries fresh);
    Pool.shutdown pool
  end

(* One crew: [g] runs on the member that ran the pool's tasks, never
   on a third domain. *)
let test_both_borrows_a_pool_worker () =
  if multicore then begin
    let borrows () =
      retire_crew ();
      Pool.with_pool ~workers:1 (fun pool ->
          let ran = task_domains pool in
          let _, g_on = both_on () in
          ran <> [] && List.mem g_on ran)
    in
    Alcotest.(check bool) "g on the pool's worker" true (within_tries borrows)
  end

(* [shutdown] retires the parked members at once: the next job spawns
   a fresh one instead of finding the old one, well inside the idle
   period. *)
let test_shutdown_retires_parked_workers () =
  if multicore then begin
    let fresh () =
      let _, h1 = both_on () in
      let t0 = Unix.gettimeofday () in
      Pool.with_pool ~workers:1 ignore;
      let _, h2 = both_on () in
      h2 <> h1 && h2 <> self () && Unix.gettimeofday () -. t0 < 0.25
    in
    Alcotest.(check bool) "a fresh member after shutdown" true
      (within_tries fresh)
  end

(* With the crew held by this domain's own [both], a pool's task set
   runs on the caller alone, in index order. *)
let test_taken_slot_runs_iter_alone () =
  if multicore then
    Pool.with_pool ~workers:2 (fun pool ->
        let order = ref [] in
        Pool.both
          (fun () ->
            Pool.iter pool
              (fun i ->
                order := (i, self ()) :: !order;
                Unix.sleepf 0.001)
              16)
          ignore;
        Alcotest.(check (list (pair int int)))
          "index order on the caller"
          (List.init 16 (fun i -> (i, self ())))
          (List.rev !order))

(* The handoff allocates nothing: neither [both] itself nor the
   solver's per-check-period use of it.  A solve held at one grid (no
   refinement, no convergence) to a budget of [n] steps allocates the
   same number of minor words whether its chains step on two domains
   or, inside a task of a pool with no workers, on one — at any [n].
   Respawning a helper does allocate, and a host stall past the idle
   period forces one, so each measurement keeps the least of three
   tries.  Bytecode boxes
   every float, so the pins hold on native builds only. *)
let least_of_three f = Float.min (f ()) (Float.min (f ()) (f ()))

let test_handoff_allocates_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let hits = ref 0 in
    let f () = incr hits and g () = () in
    Pool.both f g;
    let calls () =
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        Pool.both f g
      done;
      Gc.minor_words () -. w0
    in
    Alcotest.(check (float 0.0)) "both" 0.0 (least_of_three calls);
    (* Lent: [f] waits until [g] has started, so each [g] runs on the
       partner that is out of tasks.  The wait is a bounded spin, and
       after one that runs out [f] stops waiting. *)
    if multicore then begin
      let words, lent =
        in_lone_task (fun () ->
            let poster = self () in
            let started = Atomic.make 0 and posted = ref 0 in
            let elsewhere = Atomic.make 0 and spins = ref 0 in
            let g () =
              if self () <> poster then Atomic.incr elsewhere;
              Atomic.incr started
            and f () =
              incr posted;
              while Atomic.get started < !posted && !spins < 100_000_000 do
                Domain.cpu_relax ();
                incr spins
              done
            in
            Pool.both f g;
            let w0 = Gc.minor_words () in
            for _ = 1 to 1000 do
              Pool.both f g
            done;
            (Gc.minor_words () -. w0, Atomic.get elsewhere))
      in
      Alcotest.(check int) "every g lent" 1001 lent;
      Alcotest.(check (float 0.0)) "lent both" 0.0 words
    end;
    let model =
      Lrd_core.Model.cutoff_pareto
        ~marginal:(Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.5) ])
        ~theta:0.2 ~alpha:1.4 ~cutoff:5.0
    in
    let words max_iterations =
      let params =
        {
          Lrd_core.Solver.default_params with
          max_iterations;
          tolerance = -1.0;
          negligible_loss = 0.0;
          stall_factor = -1.0;
        }
      in
      let w0 = Gc.minor_words () in
      let r = Lrd_core.Solver.solve ~params model ~service_rate:1.25 ~buffer:2.0 in
      Alcotest.(check int) "held at one grid" 128 r.Lrd_core.Solver.bins;
      Gc.minor_words () -. w0
    in
    (* No workers: the task runs on this domain, whose plans and
       scratch are then warm for both measurements. *)
    let in_task n =
      Pool.with_pool ~workers:0 (fun pool ->
          (Pool.map pool (fun () -> words n) [| () |]).(0))
    in
    ignore (words 64);
    List.iter
      (fun n ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "solve of %d steps" n)
          (in_task n)
          (least_of_three (fun () -> words n)))
      [ 64; 4096 ]
  end

(* ------------------------------------------------------------------ *)
(* Indexed rng splitting *)

let test_split_indexed () =
  let base () = Lrd_rng.Rng.create ~seed:42L in
  let draws rng = Array.init 8 (fun _ -> Lrd_rng.Rng.uint64 rng) in
  (* Same index from the same state: the same stream. *)
  let a = draws (Lrd_rng.Rng.split_indexed (base ()) ~index:3)
  and b = draws (Lrd_rng.Rng.split_indexed (base ()) ~index:3) in
  Alcotest.(check bool) "same index, same stream" true (a = b);
  (* Distinct indices: distinct streams. *)
  let c = draws (Lrd_rng.Rng.split_indexed (base ()) ~index:4) in
  Alcotest.(check bool) "distinct index, distinct stream" false (a = c);
  (* Splitting does not advance the parent: the order of splits and
     draws cannot matter, or parallel cells would see different
     streams than sequential ones. *)
  let r1 = base () in
  let direct = draws r1 in
  let r2 = base () in
  for i = 0 to 9 do
    ignore (Lrd_rng.Rng.split_indexed r2 ~index:i)
  done;
  Alcotest.(check bool)
    "split_indexed leaves the parent untouched" true
    (direct = draws r2);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.split_indexed: index must be nonnegative")
    (fun () -> ignore (Lrd_rng.Rng.split_indexed (base ()) ~index:(-1)))

(* ------------------------------------------------------------------ *)
(* Arena: per-domain memoization.  Within one domain the builder runs
   once per key and the same value comes back; a different domain gets
   its own independently-built value (no sharing, hence no locking). *)

let test_arena_memoizes_per_domain () =
  let builds = Atomic.make 0 in
  let arena =
    Arena.create (fun key ->
        Atomic.incr builds;
        Array.make 4 key)
  in
  let a = Arena.get arena 7 in
  let b = Arena.get arena 7 in
  let c = Arena.get arena 9 in
  Alcotest.(check bool) "same key, same array" true (a == b);
  Alcotest.(check bool) "distinct keys, distinct arrays" false (a == c);
  Alcotest.(check int) "one build per key" 2 (Atomic.get builds);
  Alcotest.(check int) "size counts this domain's entries" 2 (Arena.size arena);
  (* A fresh domain must not see this domain's entries: its first get
     triggers a build of its own. *)
  let other =
    Domain.join
      (Domain.spawn (fun () ->
           let d = Arena.get arena 7 in
           let e = Arena.get arena 7 in
           (d == e, Arena.size arena)))
  in
  Alcotest.(check bool) "other domain memoizes too" true (fst other);
  Alcotest.(check int) "other domain has its own table" 1 (snd other);
  Alcotest.(check int) "other domain rebuilt key 7" 3 (Atomic.get builds);
  Alcotest.(check int) "this domain's table untouched" 2 (Arena.size arena)

(* ------------------------------------------------------------------ *)
(* Sweep grid validation *)

let test_buffers_validation () =
  (try
     ignore (Lrd_experiments.Sweep.buffers ~quick:true ~max_seconds:0.005 ());
     Alcotest.fail "expected Invalid_argument for max_seconds = 0.005"
   with Invalid_argument msg ->
     Alcotest.(check bool)
       "message names the bound" true
       (String.length msg > 0 && msg.[0] = 'S' (* "Sweep.buffers: ..." *)));
  (try
     ignore (Lrd_experiments.Sweep.buffers ~quick:true ~max_seconds:0.01 ());
     Alcotest.fail "expected Invalid_argument for max_seconds = 0.01"
   with Invalid_argument _ -> ());
  let bs = Lrd_experiments.Sweep.buffers ~quick:true ~max_seconds:0.5 () in
  Alcotest.(check int) "valid grid size" 4 (Array.length bs)

(* ------------------------------------------------------------------ *)
(* End-to-end determinism: the fig4 quick table rendered from contexts
   of parallelism 1, 2 and recommended_domain_count must be
   byte-identical (the figure's cells go through the solver, the
   workload cache and the pool all at once). *)

let fig4_table ~jobs =
  let ctx = Lrd_experiments.Data.create ~jobs ~quick:true () in
  Fun.protect
    ~finally:(fun () -> Lrd_experiments.Data.teardown ctx)
    (fun () ->
      render (fun fmt ->
          Lrd_experiments.Table.print_surface fmt
            (Lrd_experiments.Fig04.compute ctx)))

let test_fig4_deterministic_across_pools () =
  let sequential = fig4_table ~jobs:1 in
  Alcotest.(check bool) "non-empty" true (String.length sequential > 0);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "fig4 at jobs=%d" jobs)
        sequential (fig4_table ~jobs))
    [ 2; max 2 (Domain.recommended_domain_count ()) ]

let test_fig7_deterministic_across_pools () =
  (* fig7 exercises the per-column rng splitting (simulation path). *)
  let table ~jobs =
    let ctx = Lrd_experiments.Data.create ~jobs ~quick:true () in
    Fun.protect
      ~finally:(fun () -> Lrd_experiments.Data.teardown ctx)
      (fun () ->
        render (fun fmt ->
            Lrd_experiments.Table.print_surface fmt
              (Lrd_experiments.Fig07.compute ctx)))
  in
  Alcotest.(check string) "fig7 at jobs=2" (table ~jobs:1) (table ~jobs:2)

let test_estimators_deterministic_across_domains () =
  (* The FFT estimators run on per-domain cached real plans; inside pool
     tasks they must return bitwise the sequential results.  Lengths
     repeat transform sizes so several domains build and reuse plans of
     one size at once. *)
  let series =
    Array.init 12 (fun i ->
        let n = [| 700; 1000; 1024; 2000; 4096; 5000 |].(i mod 6) in
        let r =
          Lrd_rng.Rng.split_indexed (Lrd_rng.Rng.create ~seed:99L) ~index:i
        in
        Array.init n (fun _ -> Lrd_rng.Sampler.normal r ~mean:1.0 ~std:2.0))
  in
  let estimate x =
    ( (Lrd_stats.Hurst.gph x).Lrd_stats.Hurst.hurst,
      (Lrd_stats.Spectral.periodogram x).Lrd_stats.Spectral.power,
      Lrd_stats.Autocorr.autocorrelation x ~max_lag:(Array.length x / 2),
      Lrd_stats.Whittle.local_whittle x )
  in
  let expected = Array.map estimate series in
  List.iter
    (fun workers ->
      Pool.with_pool ~workers (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "bitwise, parallelism %d" (Pool.parallelism pool))
            true
            (expected = Pool.map pool estimate series)))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Workload cache: exactly one model + one workload entry per distinct
   key, every other lookup a hit, and cached solves bitwise-equal to
   uncached ones. *)

let test_cache_counters_and_values () =
  let marginal =
    Lrd_dist.Marginal.of_points [ (0.0, 0.25); (1.0, 0.5); (3.0, 0.25) ]
  in
  let model_of ~cutoff =
    Lrd_core.Model.of_hurst ~marginal ~hurst:0.8 ~theta:0.05 ~cutoff
  in
  let cutoffs = [| 0.5; 5.0; Float.infinity |] in
  let buffers = [| 0.05; 0.2; 0.8 |] in
  let cache = Lrd_core.Workload.Cache.create () in
  let cached =
    Array.map
      (fun buffer_seconds ->
        Array.map
          (fun cutoff ->
            let key = Lrd_experiments.Sweep.cell_key cutoff in
            let model =
              Lrd_core.Workload.Cache.model cache ~key (fun () ->
                  model_of ~cutoff)
            in
            (Lrd_core.Solver.solve_utilization ~cache:(cache, key) model
               ~utilization:0.8 ~buffer_seconds)
              .Lrd_core.Solver.loss)
          cutoffs)
      buffers
  in
  let cells = Array.length cutoffs * Array.length buffers in
  (* Each cell performs one model lookup and one workload lookup; only
     the first lookup of each distinct key builds an entry. *)
  Alcotest.(check int)
    "lookups" (2 * cells)
    (Lrd_core.Workload.Cache.lookups cache);
  Alcotest.(check int)
    "entries" (2 * Array.length cutoffs)
    (Lrd_core.Workload.Cache.entries cache);
  Alcotest.(check int)
    "hits"
    ((2 * cells) - 2 * Array.length cutoffs)
    (Lrd_core.Workload.Cache.hits cache);
  let uncached =
    Array.map
      (fun buffer_seconds ->
        Array.map
          (fun cutoff ->
            (Lrd_core.Solver.solve_utilization (model_of ~cutoff)
               ~utilization:0.8 ~buffer_seconds)
              .Lrd_core.Solver.loss)
          cutoffs)
      buffers
  in
  Alcotest.(check bool) "cached solves bitwise-equal" true (cached = uncached)

let test_memoized_workload_identical () =
  let marginal =
    Lrd_dist.Marginal.of_points [ (0.0, 0.5); (2.0, 0.3); (5.0, 0.2) ]
  in
  let model =
    Lrd_core.Model.of_hurst ~marginal ~hurst:0.85 ~theta:0.03 ~cutoff:2.0
  in
  let plain = Lrd_core.Workload.create model ~service_rate:1.5 in
  let memo = Lrd_core.Workload.create ~memoize:true model ~service_rate:1.5 in
  List.iter
    (fun bins ->
      let a = Lrd_core.Workload.discretize plain ~buffer:0.7 ~bins in
      let b = Lrd_core.Workload.discretize memo ~buffer:0.7 ~bins in
      Alcotest.(check bool)
        (Printf.sprintf "bins %d identical" bins)
        true
        (a.Lrd_core.Workload.lower = b.Lrd_core.Workload.lower
        && a.Lrd_core.Workload.upper = b.Lrd_core.Workload.upper))
    (* Doubling chain (refine reuse), a coarser revisit (stride reuse),
       and a non-conforming level (fresh compute): every path of the
       grid-level cache must stay bitwise equal to the plain workload. *)
    [ 16; 32; 64; 16; 48 ];
  List.iter
    (fun bins ->
      let a = Lrd_core.Workload.overflow_table plain ~buffer:0.7 ~bins in
      let b = Lrd_core.Workload.overflow_table memo ~buffer:0.7 ~bins in
      Alcotest.(check bool)
        (Printf.sprintf "overflow_table %d identical" bins)
        true (a = b);
      (* And the batch table matches the scalar API entry for entry. *)
      let step = 0.7 /. float_of_int bins in
      Array.iteri
        (fun j v ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "overflow_table %d entry %d" bins j)
            (Lrd_core.Workload.expected_overflow plain ~buffer:0.7
               ~occupancy:(Float.min 0.7 (float_of_int j *. step)))
            v)
        a)
    [ 16; 32; 64; 16; 48 ];
  let xs = [| 0.0; 0.1; 0.35; 0.7 |] in
  Array.iter
    (fun occupancy ->
      Alcotest.(check (float 0.0))
        "expected_overflow identical"
        (Lrd_core.Workload.expected_overflow plain ~buffer:0.7 ~occupancy)
        (Lrd_core.Workload.expected_overflow memo ~buffer:0.7 ~occupancy))
    xs

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "map on empty input" `Quick test_map_empty;
          Alcotest.test_case "map2_grid orientation" `Quick
            test_map2_grid_orientation;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates_and_pool_survives;
          Alcotest.test_case "iter claims every index once" `Quick
            test_iter_claims_every_index_once;
          Alcotest.test_case "a waiting task does not strand the rest" `Quick
            test_waiting_task_does_not_strand_the_rest;
          Alcotest.test_case "shutdown" `Quick
            test_shutdown_idempotent_and_final;
          Alcotest.test_case "a taken slot runs iter on its caller in index order"
            `Quick test_taken_slot_runs_iter_alone;
        ] );
      ( "both",
        [
          Alcotest.test_case "runs both thunks" `Quick test_both_runs_both;
          Alcotest.test_case "re-raises after the other side" `Quick
            test_both_reraises;
          Alcotest.test_case "sequential cases" `Quick
            test_both_sequential_cases;
          Alcotest.test_case "tasks held together keep their pairs" `Quick
            test_both_in_busy_tasks;
          Alcotest.test_case "lends to a partner out of tasks" `Quick
            test_both_lends_to_a_finished_partner;
          Alcotest.test_case "a lent g's exception after f" `Quick
            test_lent_both_reraises;
          Alcotest.test_case "crew retires and respawns" `Quick
            test_crew_retires_and_respawns;
          Alcotest.test_case "both borrows a pool's worker" `Quick
            test_both_borrows_a_pool_worker;
          Alcotest.test_case "shutdown retires parked workers" `Quick
            test_shutdown_retires_parked_workers;

          Alcotest.test_case "handoff allocates nothing" `Quick
            test_handoff_allocates_nothing;
        ] );
      ( "rng",
        [ Alcotest.test_case "split_indexed" `Quick test_split_indexed ] );
      ( "arena",
        [
          Alcotest.test_case "memoizes per domain" `Quick
            test_arena_memoizes_per_domain;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "buffers validation" `Quick
            test_buffers_validation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig4 across pool sizes" `Slow
            test_fig4_deterministic_across_pools;
          Alcotest.test_case "fig7 across pool sizes" `Slow
            test_fig7_deterministic_across_pools;
          Alcotest.test_case "estimators across domains" `Quick
            test_estimators_deterministic_across_domains;
        ] );
      ( "cache",
        [
          Alcotest.test_case "counters and values" `Quick
            test_cache_counters_and_values;
          Alcotest.test_case "memoized workload identical" `Quick
            test_memoized_workload_identical;
        ] );
    ]
