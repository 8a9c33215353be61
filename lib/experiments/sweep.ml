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
(* Row-chain sweep.

   [scheduled_surface] evaluates a grid of resumable solver states
   ([Solver.State]) instead of independent fire-and-forget solves.  The
   unit of parallel work is a row: its cells run left to right, each
   created through the figure's [state] callback, warm-started from its
   finished left neighbour when the grids coincide
   ([Solver.State.seed_from]) — skipping the refinement ladder and most
   of the mixing time — and run to the end.  A row is one pool task, so
   quantization and plan building happen on the domain that steps the
   chain, and a row holds at most two states: the cell in progress and
   the finished neighbour that seeds it.  A finished cell keeps only its
   result.

   Determinism: a row's work depends only on its own cells, so results
   are byte-identical for every pool size, exactly like [psurface].  The
   pool only changes which domain runs a row. *)

(* Only the benchmark harness still names a policy. *)
type gap_policy = Uniform

let m_warm_starts = Lrd_obs.Obs.Counter.make "sweep/warm_starts"
let m_iterations_saved = Lrd_obs.Obs.Counter.make "sweep/iterations_saved"

let scheduled_surface (type a b) ?pool ?policy:(_ : gap_policy option)
    ~(xs : a array) ~(ys : b array)
    ~(state : a -> b -> Lrd_core.Solver.State.t) () =
  let module State = Lrd_core.Solver.State in
  let module Obs = Lrd_obs.Obs in
  let nx = Array.length xs and ny = Array.length ys in
  Obs.Counter.add m_cells (nx * ny);
  let run_row iy =
    let left = ref None in
    Array.init nx (fun ix ->
        let index = (iy * nx) + ix in
        let st = state xs.(ix) ys.(iy) in
        let seed_iterations =
          match !left with
          | Some src when State.seed_from ~src st ->
              Obs.Counter.incr m_warm_starts;
              if Obs.Trace.enabled () then
                Obs.Trace.instant ~arg:index "sweep/warm_start";
              State.iterations src
          | _ -> -1
        in
        if Obs.Trace.enabled () && not (State.finished st) then
          Obs.Trace.with_span ~arg:index "sweep/slice" (fun () ->
              State.run st)
        else State.run st;
        (* Source-minus-own iterations: a conservative estimate of what
           the warm start saved (the true counterfactual would need a
           cold rerun). *)
        if seed_iterations >= 0 then
          Obs.Counter.add m_iterations_saved
            (max 0 (seed_iterations - State.iterations st));
        left := Some st;
        State.result st)
  in
  let results = Array.make ny [||] in
  (* The pool claims tasks in index order and task k runs the k-th row
     from the end, so the deepest-buffer and highest-H rows, the longest
     chains, start first. *)
  let task k =
    let iy = ny - 1 - k in
    results.(iy) <- run_row iy
  in
  let rows () =
    match pool with
    | Some p when ny > 1 -> Lrd_parallel.Pool.iter p task ny
    | _ ->
        for k = 0 to ny - 1 do
          task k
        done
  in
  if Obs.Trace.enabled () then Obs.Trace.with_span "sweep/scheduled" rows
  else rows ();
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
