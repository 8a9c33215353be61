(* One process-wide crew of worker domains behind [iter] and [both].
   See the .mli for the scheduling and determinism contract.

   One job slot, taken by CAS, admits one job at a time.  Its holder
   fills the one job record and publishes it by setting the seat count;
   members take seats by CAS and claim task indices from one [Atomic]
   counter, so nobody locks on the fast path.  The pending count covers
   the job's tasks and seats; whoever brings it to zero takes the lock
   only if the caller has gone to sleep on [finished].

   A member spins [spin_seconds] after a job, then sleeps in [select] on
   the one wake-up pipe, and retires after [idle_seconds] without a job
   (retiring takes the slot, so no job is posted to a member that is
   exiting).  A poster writes one byte per sleeping member it has seats
   for; a sleeper reads at most one.  Members retire because every minor
   collection stops every domain, a sleeping one included: a parked
   domain slowed an allocation-heavy loop 1.3-1.7x, and ext-packet
   --quick, which never uses the pool, slowed at every -j above 1 while
   pool workers lived until shutdown (2-core VM, EXPERIMENTS "One worker
   set").  [spin_seconds] covers the bound checks between a solve's
   [both] calls (1-10 us); a 2 ms spin slowed ext-ams --quick from 0.55
   to 0.85 s.  [idle_seconds] outlasts the benchmark's set-up between
   passes (0.25 s); 5 ms raised solve-cold's top heap from 28.2-30.6 to
   29.4-31.3 MB, as each retirement leaves a heap for another domain to
   adopt.  A spawn costs 0.5-4 ms, longer than most solves.

   A participant of a task set that runs out of tasks stays in the job
   until the job's last task completes and lends itself to the running
   tasks through the record's lend cell: a task's [both] posts its second
   thunk there, and a lender takes it.  A lender spins [spin_seconds]
   after each thunk, then waits on [finished] for a post or the job's
   end, so an oversubscribed pool never spins for long. *)

module Obs = Lrd_obs.Obs

(* Scheduler telemetry: counters are per-domain cells, so the worker
   hot path records lock-free; everything is a no-op (one branch, no
   allocation) while Obs is disabled.  "Run" counts land on whichever
   domain executed, so run-per-domain is the load-balance picture. *)
let m_jobs = Obs.Counter.make "pool/jobs"
let m_tasks_run = Obs.Counter.make "pool/tasks_run"
let m_task_run = Obs.Span.make "pool/task_run_seconds"
let m_queue_wait = Obs.Histogram.make "pool/queue_wait_seconds"
let m_idle = Obs.Span.make "pool/idle_seconds"

(* Bytes written to sleeping members: each costs a [select] return. *)
let m_wakeups = Obs.Counter.make "pool/wakeups"

(* [both] thunks a task set's idle participant ran for a running task. *)
let m_pairs_lent = Obs.Counter.make "pool/pairs_lent"
let spin_seconds = 1e-4
let idle_seconds = 0.5
let multicore = Domain.recommended_domain_count () > 1

type t = { workers : int; stopped : bool Atomic.t }

let parallelism t = t.workers + 1

type job = {
  mutable task : int -> unit;
  mutable tasks : int;
  mutable pair : unit -> unit;  (* [both]'s second thunk, posted or lent *)
  mutable grid : bool;  (* [iter]'s tasks: traced, counted, [current] *)
  mutable submitted : float;  (* Obs.Span.start at posting *)
  next : int Atomic.t;  (* next unclaimed task index *)
  pending : int Atomic.t;  (* tasks not completed plus seats not given back *)
  unfinished : int Atomic.t;  (* tasks not counted complete: lenders stay until 0 *)
  seats : int Atomic.t;  (* members that may still join *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  lend : int Atomic.t;  (* the lend cell's claim state, below *)
  mutable pair_failure : (exn * Printexc.raw_backtrace) option;
      (* a lent [pair]'s exception *)
}

let noop () = ()
let no_task (_ : int) = ()

(* The lend cell: [held] while a poster writes [pair] or a lender runs
   it, [posted] while a lender may take it, [lent] once a taken [pair]
   has returned (its poster then reads [pair_failure] and frees it). *)
let free = 0
let held = 1
let posted = 2
let lent = 3

let make_job () =
  { task = no_task; tasks = 0; pair = noop; grid = true;
    submitted = neg_infinity; next = Atomic.make 0; pending = Atomic.make 0;
    unfinished = Atomic.make 0; seats = Atomic.make 0;
    failure = Atomic.make None; lend = Atomic.make free; pair_failure = None }

(* The job whose task this domain runs, if any: [both] lends from a
   task of the crew's job and runs in turn inside any other. *)
let current : job option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* The slot ([free], [taken] or [retiring]) and the one record its
   holder fills. *)
let taken = 1
let retiring = 2
let slot = Atomic.make free
let job = make_job ()

(* A held slot is a job in flight, so the caller runs alone; a retiring
   member holds it for a few instructions, so that is waited out. *)
let rec take_slot () =
  Atomic.compare_and_set slot free taken
  || (Atomic.get slot = retiring && (Domain.cpu_relax (); take_slot ()))

let release () =
  job.task <- no_task;
  job.pair <- noop;
  Atomic.set job.failure None;
  Atomic.set slot free

(* A caller waiting for its job's give-backs and lenders waiting for a
   post or the job's end sleep on [finished]; [waiters] counts them. *)
let lock = Mutex.create ()
let finished = Condition.create ()
let waiters = Atomic.make 0

(* Reading [waiters] after the change it announces (and a waiter
   counting itself before its last look) means no waiter sleeps
   through it. *)
let wake () =
  if Atomic.get waiters > 0 then begin
    Mutex.lock lock;
    Condition.broadcast finished;
    Mutex.unlock lock
  end

let give_back job k =
  if Atomic.fetch_and_add job.pending (-k) = k then wake ()

(* Spin [spin_seconds] at most while [waiting job], then sleep on
   [finished] until it is false. *)
let wait_while waiting job =
  let t0 = Unix.gettimeofday () in
  while waiting job && Unix.gettimeofday () -. t0 < spin_seconds do
    Domain.cpu_relax ()
  done;
  if waiting job then begin
    Mutex.lock lock;
    Atomic.incr waiters;
    while waiting job do
      Condition.wait finished lock
    done;
    Atomic.decr waiters;
    Mutex.unlock lock
  end

let await = wait_while (fun job -> Atomic.get job.pending > 0)

(* Execute one task, routing any exception into the job's failure slot;
   once a failure is recorded, later tasks are skipped (but still
   counted) so the caller unblocks quickly. *)
let execute job i =
  match Atomic.get job.failure with
  | Some _ -> ()
  | None ->
      let t0 = if job.grid then Obs.Span.start () else neg_infinity in
      if job.grid then begin
        if t0 > neg_infinity && job.submitted > neg_infinity then
          Obs.Histogram.observe m_queue_wait (t0 -. job.submitted);
        Obs.Counter.incr m_tasks_run;
        if Obs.Trace.enabled () then Obs.Trace.begin_ ~arg:i "pool/task"
      end;
      let cur = Domain.DLS.get current in
      let outer = !cur in
      if job.grid then cur := Some job;
      (try job.task i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set job.failure None (Some (e, bt))));
      cur := outer;
      if job.grid then begin
        if Obs.Trace.enabled () then Obs.Trace.end_ ~arg:i "pool/task";
        Obs.Span.stop m_task_run t0
      end

let rec claim job claimed =
  let i = Atomic.fetch_and_add job.next 1 in
  if i < job.tasks then begin
    execute job i;
    claim job (claimed + 1)
  end
  else claimed

(* Claim and run tasks until the indices run out, then count a task
   set's tasks complete in one decrement, as [give_back] does: two
   domains that decrement a shared count per task contend on it
   (EXPERIMENTS "One worker set", pool/iter-64).  [both]'s job has no
   lenders to tell.  Returns how many this participant claimed. *)
let drain job =
  let claimed = claim job 0 in
  if
    job.grid && claimed > 0
    && Atomic.fetch_and_add job.unfinished (-claimed) = claimed
  then wake ();
  claimed

(* Run the posted [pair] the lender has taken, keep its exception for
   the poster and hand the cell back. *)
let run_lent job =
  Obs.Counter.incr m_pairs_lent;
  let traced = Obs.Trace.enabled () in
  if traced then Obs.Trace.begin_ "pool/lent";
  (try job.pair ()
   with e -> job.pair_failure <- Some (e, Printexc.get_raw_backtrace ()));
  if traced then Obs.Trace.end_ "pool/lent";
  Atomic.set job.lend lent

let idle_lender job =
  Atomic.get job.unfinished > 0 && Atomic.get job.lend <> posted

(* A participant out of tasks takes each post until the last task
   completes, spinning then sleeping between posts. *)
let rec lend job =
  wait_while idle_lender job;
  if Atomic.get job.unfinished > 0 then begin
    if Atomic.compare_and_set job.lend posted held then run_lent job;
    lend job
  end

(* ------------------------------------------------------------------ *)
(* The crew: [live] members, [sleepers] of them in [select]. *)

let wakeup =
  lazy
    (let r, w = Unix.pipe ~cloexec:true () in
     Unix.set_nonblock r;
     Unix.set_nonblock w;
     (r, w))

let live = Atomic.make 0
let sleepers = Atomic.make 0

let rec take_seat () =
  let s = Atomic.get job.seats in
  s > 0 && (Atomic.compare_and_set job.seats s (s - 1) || take_seat ())

(* Counting itself among the sleepers before its last look at the seats
   (and a poster publishing seats before it counts sleepers) means a
   post is never missed: at worst a stray byte cuts a later sleep short.
   Another sleeper may read the byte first, hence the nonblocking read;
   a failing [select] ends the sleep early, and the deadline stands. *)
let sleep timeout =
  Atomic.incr sleepers;
  (if Atomic.get job.seats <= 0 then
     let r, _ = Lazy.force wakeup in
     match Unix.select [ r ] [] [] timeout with
     | [], _, _ -> ()
     | _ -> ( try ignore (Unix.read r (Bytes.create 1) 0 1) with Unix.Unix_error _ -> ())
     | exception Unix.Unix_error _ -> ());
  Atomic.decr sleepers

(* Spin, then sleep, until a seat is taken (true) or [idle_seconds]
   pass without one (false). *)
let await_seat () =
  let deadline = Unix.gettimeofday () +. idle_seconds in
  let rec go () =
    let t0 = Unix.gettimeofday () in
    while Atomic.get job.seats <= 0 && Unix.gettimeofday () -. t0 < spin_seconds do
      Domain.cpu_relax ()
    done;
    take_seat ()
    ||
    let left = deadline -. Unix.gettimeofday () in
    left > 0.0 && (sleep left; go ())
  in
  go ()

(* A member idles until it has a seat, or the slot to retire, and runs
   the job.  A job of no tasks is a shutdown's: its seats retire the
   members that take them, under the shutdown's hold on the slot.  The
   idle slice closes before the member retires, so a shutdown that has
   waited for it sees its last record. *)
let rec serve () =
  let t0 = Obs.Span.start () and traced = Obs.Trace.enabled () in
  if traced then Obs.Trace.begin_ "pool/idle";
  let rec wait () =
    await_seat () || ((not (Atomic.compare_and_set slot free retiring)) && wait ())
  in
  let seated = wait () in
  if traced then Obs.Trace.end_ "pool/idle";
  Obs.Span.stop m_idle t0;
  if seated && job.tasks > 0 then begin
    let claimed = drain job in
    if job.grid then lend job;
    give_back job (claimed + 1);
    serve ()
  end
  else begin
    Atomic.decr live;
    if seated then give_back job 1 else Atomic.set slot free
  end

(* The slot's holder spawns members until [seats] are live (a runtime
   that refuses a domain leaves fewer), publishes the filled record and
   writes one byte per sleeping member it has a seat for.  False if no
   member is live. *)
let post ~seats =
  (try
     while Atomic.get live < seats do
       ignore (Lazy.force wakeup);
       ignore (Domain.spawn serve);
       Atomic.incr live
     done
   with _ -> ());
  let seats = min seats (Atomic.get live) in
  Atomic.set job.next 0;
  Atomic.set job.unfinished job.tasks;
  Atomic.set job.pending (job.tasks + seats);
  Atomic.set job.seats seats;
  for _ = 1 to min seats (Atomic.get sleepers) do
    Obs.Counter.incr m_wakeups;
    try ignore (Unix.write_substring (snd (Lazy.force wakeup)) "!" 0 1)
    with Unix.Unix_error _ -> ()
  done;
  seats > 0

let create ?workers () =
  let workers =
    match workers with
    | Some w ->
        if w < 0 then invalid_arg "Pool.create: workers must be nonnegative";
        w
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  { workers; stopped = Atomic.make false }

(* Offer every live member a seat of no tasks and wait until all have
   retired.  A job in flight (another domain's, or one this domain is
   inside) keeps its members; they retire once idle. *)
let shutdown t =
  if (not (Atomic.exchange t.stopped true)) && take_slot () then begin
    job.tasks <- 0;
    ignore (post ~seats:(Atomic.get live));
    await job;
    release ()
  end

let with_pool ?workers f =
  let pool = create ?workers () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let reraise = function
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* On the crew when the handle has workers and the slot is free, else
   on the caller alone, in index order. *)
let iter t task n =
  if n < 0 then invalid_arg "Pool.iter: negative task count";
  if n > 0 then begin
    if Atomic.get t.stopped then invalid_arg "Pool.iter: pool has been shut down";
    if Option.is_some !(Domain.DLS.get current) then
      invalid_arg "Pool.iter: pool already running a task set (nested map?)";
    Obs.Counter.incr m_jobs;
    if Obs.Trace.enabled () then Obs.Trace.instant ~arg:n "pool/job";
    let shared = t.workers > 0 && take_slot () in
    let job = if shared then job else make_job () in
    job.task <- task;
    job.tasks <- n;
    job.grid <- true;
    job.submitted <- Obs.Span.start ();
    if shared then ignore (post ~seats:t.workers);
    let claimed = drain job in
    if shared then begin
      (* Seats first: a member that joins now finds no task and only
         delays the caller. *)
      give_back job (claimed + Atomic.exchange job.seats 0);
      lend job;
      await job
    end;
    let failure = Atomic.get job.failure in
    if shared then release ();
    reraise failure
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

let capture f =
  match f () with
  | () -> None
  | exception e -> Some (e, Printexc.get_raw_backtrace ())

(* Once both halves have run: [f]'s exception wins. *)
let settle mine theirs =
  match mine with None -> reraise theirs | Some _ -> reraise mine

let sequentially f g =
  let mine = capture f in
  settle mine (capture g)

(* [both] in a task of the crew's job: post [g] to the lend cell, run
   [f], then wait for the lender that took [g] or take [g] back.  With
   the cell held by another task's post, or a nested [both], it runs
   [f] then [g]. *)
let lend_pair f g =
  if not (Atomic.compare_and_set job.lend free held) then sequentially f g
  else begin
    job.pair <- g;
    Atomic.set job.lend posted;
    wake ();
    let mine = capture f in
    if Atomic.compare_and_set job.lend posted free then settle mine (capture g)
    else begin
      (* Spin: [g] is running, one half of a split. *)
      while Atomic.get job.lend <> lent do
        Domain.cpu_relax ()
      done;
      let theirs = job.pair_failure in
      job.pair_failure <- None;
      Atomic.set job.lend free;
      settle mine theirs
    end
  end

(* [g] is the one task of a one-seat job and [f] runs on the caller,
   which keeps the floor chain on the caller's scratch.  Nothing here
   allocates: the record is reused and [run_pair] is one closure. *)
let run_pair (_ : int) = job.pair ()

let both f g =
  match !(Domain.DLS.get current) with
  | _ when not multicore -> sequentially f g
  | Some j when j == job -> lend_pair f g
  | Some _ -> sequentially f g
  | None when not (take_slot ()) -> sequentially f g
  | None ->
      job.task <- run_pair;
      job.pair <- g;
      job.tasks <- 1;
      job.grid <- false;
      if not (post ~seats:1) then begin
        release ();
        sequentially f g
      end
      else begin
        let mine = capture f in
        (* Spin, unlike [iter]'s caller: [g] is one half of a split, and
           waking the caller from [finished] as well as the member from
           its sleep doubled the p50 of a [both] that found its member
           asleep (110 to 220 us on a 2-core VM). *)
        while Atomic.get job.pending > 0 do
          Domain.cpu_relax ()
        done;
        let theirs = Atomic.get job.failure in
        release ();
        settle mine theirs
      end
