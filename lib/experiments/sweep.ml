let buffers ~quick ?(max_seconds = 2.0) () =
  if not (max_seconds > 0.01) then
    invalid_arg
      (Printf.sprintf
         "Sweep.buffers: max_seconds must exceed 0.01 s (the logspace lower \
          bound), got %g"
         max_seconds);
  let points = if quick then 4 else 7 in
  Lrd_numerics.Array_ops.logspace 0.01 max_seconds points

let cutoffs ~quick () =
  let points = if quick then 4 else 10 in
  let finite = Lrd_numerics.Array_ops.logspace 0.1 100.0 points in
  Array.append finite [| Float.infinity |]

let hursts ~quick () =
  if quick then [| 0.55; 0.75; 0.95 |] else [| 0.55; 0.65; 0.75; 0.85; 0.95 |]

let scalings ~quick () =
  if quick then [| 0.5; 1.0; 1.5 |] else [| 0.5; 0.75; 1.0; 1.25; 1.5 |]

let stream_counts ~quick () =
  if quick then [| 1; 3; 7 |] else [| 1; 2; 3; 5; 7; 10 |]

(* All grid evaluation funnels through these three helpers, so a figure
   routed here runs on the experiment context's domain pool when one is
   configured and sequentially otherwise.  The cell function must obey
   the pool's determinism contract (no shared mutable state, randomness
   only via [Rng.split_indexed] on the cell index): under that contract
   the parallel grids are bit-identical to the sequential ones, which
   the tier-1 determinism test enforces. *)

(* Grid cells evaluated through the sweep helpers, pooled or
   sequential: the denominator for workload-cache and solver counters
   when reading a metrics snapshot of a figure run. *)
let m_cells = Lrd_obs.Obs.Counter.make "sweep/cells"

(* A traced cell records one timeline slice on whichever domain ran it;
   pooled cells also get a [pool/task] slice from the scheduler, so the
   sweep slice nests inside it with the cell work attributed by name. *)
let traced1 f x =
  if Lrd_obs.Obs.Trace.enabled () then
    Lrd_obs.Obs.Trace.with_span "sweep/cell" (fun () -> f x)
  else f x

let traced2 f x y =
  if Lrd_obs.Obs.Trace.enabled () then
    Lrd_obs.Obs.Trace.with_span "sweep/cell" (fun () -> f x y)
  else f x y

let map ?pool f xs =
  Lrd_obs.Obs.Counter.add m_cells (Array.length xs);
  let f = traced1 f in
  match pool with
  | None -> Array.map f xs
  | Some p -> Lrd_parallel.Pool.map p f xs

let psurface ?pool ~xs ~ys ~f () =
  Lrd_obs.Obs.Counter.add m_cells (Array.length xs * Array.length ys);
  let f = traced2 f in
  match pool with
  | None -> Array.map (fun y -> Array.map (fun x -> f x y) xs) ys
  | Some p -> Lrd_parallel.Pool.map2_grid p ~xs ~ys ~f

let cell_key x = Printf.sprintf "%h" x

(* ------------------------------------------------------------------ *)
(* Row-chain sweep scheduler.

   [scheduled_surface] evaluates a grid of resumable solver states
   ([Solver.State]) instead of independent fire-and-forget solves.  The
   unit of parallel work is a row: its cells run left to right, each
   created through the figure's [state] callback and — when the grids
   coincide — warm-started from its finished left neighbour
   ([Solver.State.seed_from]), skipping the refinement ladder and most
   of the mixing time.  A row runs inside one pool task, so
   quantization and plan building happen on the domain that steps the
   chain, and a row holds at most two states: the cell in progress and
   the finished neighbour that seeds it.  A finished cell keeps only its
   result.

   Under the uniform policy a row's allowance is unlimited and the
   whole surface is one [Pool.iter].  The contrast and budget policies
   run the rows in epochs of [slice] chain iterations each and apply
   the policy between epochs, on the calling domain:

   - an optional plotted-contrast rule stops cells whose certified
     upper bound already sits decades below the surface's largest
     certified lower bound (their exact value cannot change the
     figure);
   - an optional global iteration budget hard-stops the whole surface.

   Determinism: a row's work in an epoch depends only on its own
   states, and the policies read them between epochs in row order — so
   results are byte-identical for every pool size, exactly like
   [surface].  The pool only changes which domain runs a row. *)

type contrast = Decades of float | From_axis

type gap_policy = {
  contrast : contrast option;
  iteration_budget : int option;
}

let uniform_policy = { contrast = None; iteration_budget = None }

let m_warm_starts = Lrd_obs.Obs.Counter.make "sweep/warm_starts"
let m_iterations_saved = Lrd_obs.Obs.Counter.make "sweep/iterations_saved"
let m_early_stopped = Lrd_obs.Obs.Counter.make "sweep/cells_early_stopped"
let m_rounds = Lrd_obs.Obs.Counter.make "sweep/schedule_rounds"
let m_sched_gap = Lrd_obs.Obs.Trajectory.make ~capacity:256 "sweep/gap_rel"

type row = {
  iy : int;
  mutable ix : int;  (* the cell in progress; [nx] once the row is done *)
  mutable cell : Lrd_core.Solver.State.t option;
  mutable left : Lrd_core.Solver.State.t option;
      (* the finished left neighbour, until it has seeded [ix] *)
  mutable seed_iterations : int;
      (* iterations the seed had spent; -1 for a cold cell *)
  mutable spent : int;  (* iterations of the row's finished cells *)
}

let scheduled_surface (type a b) ?pool ?(policy = uniform_policy)
    ?(slice = 512) ~(xs : a array) ~(ys : b array)
    ~(state : a -> b -> Lrd_core.Solver.State.t) () =
  let module State = Lrd_core.Solver.State in
  let module Obs = Lrd_obs.Obs in
  if slice <= 0 then
    invalid_arg "Sweep.scheduled_surface: slice must be positive";
  (match policy.iteration_budget with
  | Some n when n <= 0 ->
      invalid_arg "Sweep.scheduled_surface: iteration budget must be positive"
  | _ -> ());
  let nx = Array.length xs and ny = Array.length ys in
  let rows =
    Array.init ny (fun iy ->
        { iy; ix = 0; cell = None; left = None; seed_iterations = -1; spent = 0 })
  in
  Obs.Counter.add m_cells (nx * ny);
  (* Every cell is overwritten by [finish_cell] before the surface
     returns; the NaN placeholder only fills the matrix. *)
  let pending =
    {
      Lrd_core.Solver.loss = Float.nan;
      lower_bound = Float.nan;
      upper_bound = Float.nan;
      iterations = 0;
      bins = 0;
      refinements = 0;
      converged = false;
    }
  in
  let results = Array.make_matrix ny nx pending in
  let index r = (r.iy * nx) + r.ix in
  let open_cell r =
    let st = state xs.(r.ix) ys.(r.iy) in
    r.seed_iterations <- -1;
    (match r.left with
    | Some src ->
        if State.seed_from ~src st then begin
          Obs.Counter.incr m_warm_starts;
          r.seed_iterations <- State.iterations src;
          if Obs.Trace.enabled () then
            Obs.Trace.instant ~arg:(index r) "sweep/warm_start"
        end
    | None -> ());
    r.left <- None;
    r.cell <- Some st;
    st
  in
  let finish_cell r st =
    (* Source-minus-own iterations: a conservative estimate of what the
       warm start saved (the true counterfactual would need a cold
       rerun). *)
    if r.seed_iterations >= 0 then
      Obs.Counter.add m_iterations_saved
        (max 0 (r.seed_iterations - State.iterations st));
    results.(r.iy).(r.ix) <- State.result st;
    r.spent <- r.spent + State.iterations st;
    r.cell <- None;
    r.left <- Some st;
    r.ix <- r.ix + 1
  in
  let stop_cell r st =
    if not (State.finished st) then begin
      State.stop st;
      Obs.Counter.incr m_early_stopped;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~arg:(index r) "sweep/early_stop"
    end;
    finish_cell r st
  in
  (* Advance row [r] left to right by up to [allowance] chain
     iterations, opening each cell as its predecessor finishes. *)
  let run_row r ~allowance =
    let remaining = ref allowance in
    while r.ix < nx && !remaining > 0 do
      let st = match r.cell with Some st -> st | None -> open_cell r in
      if not (State.finished st) then begin
        let before = State.iterations st in
        let advance () = State.advance st ~iterations:!remaining in
        if Obs.Trace.enabled () then
          Obs.Trace.with_span ~arg:(index r) "sweep/slice" advance
        else advance ();
        remaining := !remaining - (State.iterations st - before);
        if Obs.enabled () then
          Obs.Trajectory.record m_sched_gap (State.gap_rel st)
      end;
      if State.finished st then finish_cell r st
    done
  in
  let active () = List.filter (fun r -> r.ix < nx) (Array.to_list rows) in
  (* One epoch: every unfinished row runs once, in a task of its own.
     The pool claims tasks in index order and task k runs the k-th row
     from the end, so the deepest-buffer and highest-H rows, the
     longest chains, start first. *)
  let epoch ~allowance =
    let act = Array.of_list (active ()) in
    let n = Array.length act in
    let task k = run_row act.(n - 1 - k) ~allowance in
    Obs.Counter.incr m_rounds;
    match pool with
    | Some p when n > 1 -> Lrd_parallel.Pool.iter p task n
    | _ ->
        for k = 0 to n - 1 do
          task k
        done
  in
  let finished_lowers () =
    Array.fold_left
      (fun acc r ->
        let los = ref acc in
        for ix = 0 to r.ix - 1 do
          los := results.(r.iy).(ix).Lrd_core.Solver.lower_bound :: !los
        done;
        !los)
      [] rows
  in
  (* Plotted-contrast early stop: a cell whose certified upper bound
     sits [decades] below the largest certified lower bound anywhere on
     the surface so far cannot move its own pixel — every further
     iteration would only narrow an invisibly small value. *)
  let apply_contrast () =
    let positive = List.filter (fun lo -> Float.is_finite lo && lo > 0.0) in
    let decades =
      match policy.contrast with
      | None -> None
      | Some (Decades d) -> Some d
      | Some From_axis -> (
          (* Derive the contrast from the loss axis itself: the
             certified lower bounds of finished cells span the plotted
             range, and a cell more than one decade below the smallest
             plotted value sits off the bottom of the axis.  Until a
             cell has finished with a positive bound there is no axis to
             read, so no cut is applied.  The fixed default (2 decades)
             is the floor so a near-flat axis never turns the rule into
             a hair trigger. *)
          match positive (finished_lowers ()) with
          | [] -> None
          | lo :: los ->
              let lmax = List.fold_left Float.max lo los
              and lmin = List.fold_left Float.min lo los in
              Some (Float.max 2.0 (Float.log10 (lmax /. lmin) +. 1.0)))
    in
    match decades with
    | None -> ()
    | Some decades ->
        let running =
          List.filter_map
            (fun r ->
              match r.cell with
              | Some st when State.certified st -> Some (r, st)
              | _ -> None)
            (active ())
        in
        let lowers =
          List.map (fun (_, st) -> fst (State.bounds st)) running
          @ finished_lowers ()
        in
        let floor_lower = List.fold_left Float.max 0.0 (positive lowers) in
        let cut = floor_lower *. (10.0 ** -.decades) in
        if cut > 0.0 then
          List.iter
            (fun (r, st) ->
              let _, hi = State.bounds st in
              if Float.is_finite hi && hi < cut then stop_cell r st)
            running
  in
  (* Global budget: once the surface has spent its iteration cap, stop
     everything — the cells not yet opened too, which report their
     cold (vacuous but certified) initial bounds. *)
  let budget_spent () =
    match policy.iteration_budget with
    | None -> false
    | Some budget ->
        let spent =
          Array.fold_left
            (fun acc r ->
              acc + r.spent
              + match r.cell with Some st -> State.iterations st | None -> 0)
            0 rows
        in
        spent >= budget
  in
  let drain () =
    List.iter
      (fun r ->
        while r.ix < nx do
          (* A drained cell reports its cold initial bounds: it is
             never seeded from its stopped neighbour. *)
          r.left <- None;
          let st = match r.cell with Some st -> st | None -> open_cell r in
          stop_cell r st
        done)
      (active ())
  in
  (* Under the uniform policy nothing reads the states between epochs,
     so a row's allowance is unlimited and one epoch runs the surface. *)
  let allowance = if policy = uniform_policy then max_int else slice in
  let rec epochs () =
    if budget_spent () then drain ()
    else if active () <> [] then begin
      epoch ~allowance;
      apply_contrast ();
      epochs ()
    end
  in
  if Obs.Trace.enabled () then Obs.Trace.with_span "sweep/scheduled" epochs
  else epochs ();
  results

(* The shared parameter grids, as manifest JSON.  Infinite cutoffs are
   rendered as the string "inf": JSON has no infinity literal and a
   null would lose which cell the value was. *)
let manifest_fields ~quick () =
  let open Lrd_obs.Json in
  let num f = if Float.is_finite f then Num f else Str "inf" in
  let floats a = List (Array.to_list (Array.map num a)) in
  let ints a =
    List (Array.to_list (Array.map (fun i -> Num (float_of_int i)) a))
  in
  [
    ("buffers_seconds", floats (buffers ~quick ()));
    ("cutoffs_seconds", floats (cutoffs ~quick ()));
    ("hursts", floats (hursts ~quick ()));
    ("scalings", floats (scalings ~quick ()));
    ("stream_counts", ints (stream_counts ~quick ()));
  ]

let shuffle_blocks_of_cutoffs trace cutoffs =
  let slot = trace.Lrd_trace.Trace.slot in
  Array.map
    (fun tc ->
      if tc = Float.infinity then (tc, None)
      else (tc, Some (max 1 (int_of_float (Float.round (tc /. slot))))))
    cutoffs
