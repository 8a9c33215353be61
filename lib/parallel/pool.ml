(* Work-stealing domain pool.  See the .mli for the scheduling and
   determinism contract.

   Synchronization structure: one mutex guards the pool's job slot and
   epoch counter; workers sleep on [work] until the epoch advances, the
   caller sleeps on [finished] until the job's pending-task count drains
   to zero.  Task completion is counted with an [Atomic] so participants
   never take the pool mutex on the fast path — only the decrement that
   reaches zero takes it, to wake the caller without a lost-wakeup race. *)

(* ------------------------------------------------------------------ *)
(* Per-participant deque of task indices.

   Contiguous index blocks are loaded once at job start; the owner pops
   from the tail (so it walks its block in order), thieves take from the
   head (so they grab the work farthest from the owner's cursor).  A
   plain mutex per deque is enough here: tasks are solver/simulator
   cells costing milliseconds, so queue operations are nowhere near the
   contention regime that would justify a lock-free Chase-Lev deque. *)

module Deque = struct
  type t = {
    lock : Mutex.t;
    items : int array;
    mutable head : int;  (* next index a thief takes *)
    mutable tail : int;  (* one past the next index the owner takes *)
  }

  let of_block ~lo ~hi =
    {
      lock = Mutex.create ();
      items = Array.init (hi - lo) (fun i -> lo + i);
      head = 0;
      tail = hi - lo;
    }

  let pop t =
    Mutex.lock t.lock;
    let r =
      if t.tail > t.head then begin
        t.tail <- t.tail - 1;
        Some t.items.(t.tail)
      end
      else None
    in
    Mutex.unlock t.lock;
    r

  let steal t =
    Mutex.lock t.lock;
    let r =
      if t.tail > t.head then begin
        let i = t.items.(t.head) in
        t.head <- t.head + 1;
        Some i
      end
      else None
    in
    Mutex.unlock t.lock;
    r
end

module Obs = Lrd_obs.Obs

(* Scheduler telemetry: counters are per-domain cells, so the worker
   hot path records lock-free; everything is a no-op (one branch, no
   allocation) while Obs is disabled.  "Stolen" counts land on the
   thief's domain; "run" counts on whichever domain executed, so
   run-per-domain is the load-balance picture and stolen-per-domain the
   imbalance repair traffic. *)
let m_jobs = Obs.Counter.make "pool/jobs"
let m_tasks_run = Obs.Counter.make "pool/tasks_run"
let m_tasks_stolen = Obs.Counter.make "pool/tasks_stolen"
let m_task_run = Obs.Span.make "pool/task_run_seconds"
let m_queue_wait = Obs.Histogram.make "pool/queue_wait_seconds"
let m_idle = Obs.Span.make "pool/idle_seconds"

type job = {
  run_task : int -> unit;
  deques : Deque.t array;  (* one per participant *)
  pending : int Atomic.t;  (* tasks not yet completed *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  submitted : float;  (* Obs.Span.start at job creation; neg_infinity
                         when telemetry was off *)
}

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* workers: a new epoch (job or shutdown) *)
  finished : Condition.t;  (* caller: pending reached zero *)
  mutable epoch : int;
  mutable job : job option;
  mutable stopping : bool;
  mutable joined : bool;
  mutable workers : unit Domain.t array;
}

let parallelism t = Array.length t.workers + 1

(* Set while this domain runs a pool task: [both] then stays
   sequential, so a grid's parallelism is the pool's alone. *)
let in_task : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* Execute one task, routing any exception into the job's failure slot;
   once a failure is recorded, later tasks are skipped (but still
   counted) so the caller unblocks quickly.  Returns true iff this call
   completed the job's last task. *)
let execute job i =
  (if Atomic.get job.failure = None then begin
     let t0 = Obs.Span.start () in
     if t0 > neg_infinity && job.submitted > neg_infinity then
       Obs.Histogram.observe m_queue_wait (t0 -. job.submitted);
     Obs.Counter.incr m_tasks_run;
     if Obs.Trace.enabled () then Obs.Trace.begin_ ~arg:i "pool/task";
     let flag = Domain.DLS.get in_task in
     let outer = !flag in
     flag := true;
     (try job.run_task i
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set job.failure None (Some (e, bt))));
     flag := outer;
     if Obs.Trace.enabled () then Obs.Trace.end_ ~arg:i "pool/task";
     Obs.Span.stop m_task_run t0
   end);
  Atomic.fetch_and_add job.pending (-1) = 1

let drain pool job ~me =
  let parts = Array.length job.deques in
  let finished_now = ref false in
  (* Own block first, then round-robin stealing sweeps. *)
  let rec own () =
    match Deque.pop job.deques.(me) with
    | Some i ->
        if execute job i then finished_now := true;
        own ()
    | None -> steal_sweep ()
  and steal_sweep () =
    let progressed = ref false in
    for k = 1 to parts - 1 do
      let victim = (me + k) mod parts in
      match Deque.steal job.deques.(victim) with
      | Some i ->
          progressed := true;
          Obs.Counter.incr m_tasks_stolen;
          if Obs.Trace.enabled () then Obs.Trace.instant ~arg:i "pool/steal";
          if execute job i then finished_now := true
      | None -> ()
    done;
    if !progressed then own ()
  in
  own ();
  (* Whoever completed the last task wakes the caller; the broadcast is
     taken under the pool lock so the caller cannot miss it between its
     predicate check and its wait. *)
  if !finished_now then begin
    Mutex.lock pool.lock;
    Condition.broadcast pool.finished;
    Mutex.unlock pool.lock
  end

let rec worker_loop pool ~me ~last_epoch =
  Mutex.lock pool.lock;
  (* Idle accounting covers exactly the epochs-behind wait: per-domain
     idle_seconds plus a pool/idle trace slice, so Report can split each
     domain's timeline into busy vs parked-between-jobs time.  Recording
     under the pool lock is fine — the instruments are per-domain cells
     and never take a lock themselves. *)
  if pool.epoch = last_epoch && not pool.stopping then begin
    let t0 = Obs.Span.start () in
    if Obs.Trace.enabled () then Obs.Trace.begin_ "pool/idle";
    while pool.epoch = last_epoch && not pool.stopping do
      Condition.wait pool.work pool.lock
    done;
    if Obs.Trace.enabled () then Obs.Trace.end_ "pool/idle";
    Obs.Span.stop m_idle t0
  end;
  let epoch = pool.epoch and job = pool.job and stopping = pool.stopping in
  Mutex.unlock pool.lock;
  if not stopping then begin
    (match job with Some j -> drain pool j ~me | None -> ());
    worker_loop pool ~me ~last_epoch:epoch
  end

let create ?workers () =
  let workers =
    match workers with
    | Some w ->
        if w < 0 then invalid_arg "Pool.create: workers must be nonnegative";
        w
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let pool =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      epoch = 0;
      job = None;
      stopping = false;
      joined = false;
      workers = [||];
    }
  in
  pool.workers <-
    Array.init workers (fun me ->
        Domain.spawn (fun () -> worker_loop pool ~me ~last_epoch:0));
  pool

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.work;
  let join_now = not t.joined in
  t.joined <- true;
  Mutex.unlock t.lock;
  if join_now then Array.iter Domain.join t.workers

let with_pool ?workers f =
  let pool = create ?workers () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let iter t run_task n =
  if n < 0 then invalid_arg "Pool.iter: negative task count";
  if n > 0 then begin
    let parts = parallelism t in
    let deques =
      Array.init parts (fun p ->
          Deque.of_block ~lo:(p * n / parts) ~hi:((p + 1) * n / parts))
    in
    Obs.Counter.incr m_jobs;
    if Obs.Trace.enabled () then Obs.Trace.instant ~arg:n "pool/job";
    let job =
      {
        run_task;
        deques;
        pending = Atomic.make n;
        failure = Atomic.make None;
        submitted = Obs.Span.start ();
      }
    in
    Mutex.lock t.lock;
    if t.job <> None then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool.iter: pool already running a task set (nested map?)"
    end;
    if t.stopping then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool.iter: pool has been shut down"
    end;
    t.job <- Some job;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (* The caller is the last participant. *)
    drain t job ~me:(parts - 1);
    Mutex.lock t.lock;
    while Atomic.get job.pending > 0 do
      Condition.wait t.finished t.lock
    done;
    t.job <- None;
    Mutex.unlock t.lock;
    match Atomic.get job.failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    iter t (fun i -> out.(i) <- Some (f xs.(i))) n;
    Array.map (function Some v -> v | None -> assert false) out
  end

let map2_grid t ~xs ~ys ~f =
  let nx = Array.length xs and ny = Array.length ys in
  let n = nx * ny in
  if n = 0 then Array.map (fun _ -> [||]) ys
  else begin
    let out = Array.make n None in
    iter t (fun k -> out.(k) <- Some (f xs.(k mod nx) ys.(k / nx))) n;
    Array.init ny (fun iy ->
        Array.init nx (fun ix ->
            match out.((iy * nx) + ix) with
            | Some v -> v
            | None -> assert false))
  end

(* ------------------------------------------------------------------ *)
(* Two-party fork-join on one process-wide helper domain.

   Whoever wins the [owned] flag may post to the helper; everyone else
   runs both thunks itself.  The owner writes [job], raises [phase] to
   [posted], runs its own thunk and spins until the helper sets [done_]
   — an atomic handoff on both sides, so each side's writes before it
   are visible to the other after it.  Nothing on this path allocates:
   the thunks are the caller's, and an exception is only boxed when one
   is raised.

   The helper outlives a single call: spawning and joining a domain per
   one-shot solve raised the solve-cold benchmark's top heap by about a
   third, and a spawn costs 0.5-4 ms on a 2-core VM, longer than most
   solves.  But a live idle domain is not free either: every minor
   collection stops all domains, a sleeping one included, and a
   spinning one competes for the host core the caller's own work may
   need.  So the helper spins briefly, then sleeps in [select] on a
   pipe the owner writes a byte to, and retires when the sleep times
   out.  Measured on a 2-core VM (noisy: repeated runs spread by
   10-20%):

   - [spin_seconds]: in solve-cold nine in ten gaps between two calls
     are the bound check between two runs of steps (1-10 us); the rest
     are mostly a new solve's set-up (0.1-1 ms) and refinements to a
     large grid (1-10 ms).  A 2 ms spin slowed ext-ams --quick, whose
     solves sit between allocation-heavy simulations, from 0.55 to
     0.85 s; 100 us covers the checks and cost nothing measurable.
   - [idle_seconds]: each retirement leaves the helper's heap for
     another domain to adopt, and solve-cold's top heap at 55 s read
     29.4-31.3 MB with 5 ms, which retires the helper in refinement
     gaps and between passes (4 runs, 12-16 passes), against
     28.2-30.6 MB with 0.5 s (10 runs, 15-19 passes) and 24.9-26.1 MB
     without a helper.  Half a second outlasts the benchmark's set-up
     between passes (0.25 s).  The price is a parked helper for up to
     that long after a process's last solve: ext-ams --quick read
     0.64 s against 0.55 s without a helper, and solve-cold's set-up
     0.121 s against 0.113 s.  The next [both] after a retirement
     joins the retired domain and spawns a fresh one. *)

let spin_seconds = 1e-4
let idle_seconds = 0.5
let multicore = Domain.recommended_domain_count () > 1
let owned = Atomic.make false
let empty = 0
let posted = 1
let done_ = 2
let phase = Atomic.make empty
let sleeping = Atomic.make false
let noop () = ()
let job = ref noop
let failure : (exn * Printexc.raw_backtrace) option ref = ref None

(* The owner writes a byte here when it posts to a sleeping helper. *)
let wakeup = lazy (Unix.pipe ~cloexec:true ())

(* The helper domain, alive or retired and awaiting its join; read and
   written only by the owner. *)
let helper : unit Domain.t option ref = ref None
let helper_alive = ref false

(* Sleep until a byte arrives or [idle_seconds] pass; true on a byte.
   Setting [sleeping] before the last look at [phase] (and the owner
   posting before it looks at [sleeping]) means a post is never missed:
   at worst a stray byte cuts the next sleep short.  A failing [select]
   (say, a descriptor past its limit) counts as a timeout, so the
   helper retires rather than leaving an owner waiting on it. *)
let sleep_for_job () =
  Atomic.set sleeping true;
  let woken =
    Atomic.get phase = posted
    ||
    let r, _ = Lazy.force wakeup in
    match Unix.select [ r ] [] [] idle_seconds with
    | [], _, _ -> false
    | _ ->
        ignore (Unix.read r (Bytes.create 64) 0 64);
        true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
    | exception Unix.Unix_error _ -> false
  in
  Atomic.set sleeping false;
  woken

(* Wait for a posted job; false once the helper has retired.  Retiring
   takes [owned] first, so no owner can be posting at that moment. *)
let rec await_job () =
  let t0 = Unix.gettimeofday () in
  while
    Atomic.get phase <> posted && Unix.gettimeofday () -. t0 < spin_seconds
  do
    Domain.cpu_relax ()
  done;
  if Atomic.get phase = posted then true
  else if sleep_for_job () then await_job ()
  else if Atomic.compare_and_set owned false true then begin
    helper_alive := false;
    Atomic.set owned false;
    false
  end
  else await_job ()

let rec serve () =
  if await_job () then begin
    (try !job ()
     with e -> failure := Some (e, Printexc.get_raw_backtrace ()));
    Atomic.set phase done_;
    serve ()
  end

let sequentially f g =
  match f () with
  | () -> g ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      g ();
      Printexc.raise_with_backtrace e bt

(* Spawn a helper if none is alive; false if the runtime refuses. *)
let ensure_helper () =
  !helper_alive
  ||
  (Option.iter (fun d -> try Domain.join d with _ -> ()) !helper;
   helper := None;
   match
     ignore (Lazy.force wakeup);
     Domain.spawn serve
   with
   | d ->
       helper := Some d;
       helper_alive := true;
       true
   | exception _ -> false)

let both f g =
  if
    (not multicore)
    || !(Domain.DLS.get in_task)
    || not (Atomic.compare_and_set owned false true)
  then sequentially f g
  else if not (ensure_helper ()) then begin
    Atomic.set owned false;
    sequentially f g
  end
  else begin
    job := g;
    Atomic.set phase posted;
    if Atomic.get sleeping then
      ignore (Unix.write_substring (snd (Lazy.force wakeup)) "!" 0 1);
    let mine =
      match f () with
      | () -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    while Atomic.get phase <> done_ do
      Domain.cpu_relax ()
    done;
    Atomic.set phase empty;
    let theirs = !failure in
    failure := None;
    job := noop;
    Atomic.set owned false;
    match (mine, theirs) with
    | Some (e, bt), _ | None, Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None, None -> ()
  end
