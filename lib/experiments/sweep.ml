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

(* A traced cell records one [sweep/cell] slice, its arg the row-major
   cell index, on whichever domain ran it; pooled cells also get a
   [pool/task] slice from the scheduler, so the sweep slice nests
   inside it with the cell work attributed by name. *)
let traced index f =
  if Lrd_obs.Obs.Trace.enabled () then
    Lrd_obs.Obs.Trace.with_span ~arg:index "sweep/cell" f
  else f ()

let map ?pool f xs =
  Lrd_obs.Obs.Counter.add m_cells (Array.length xs);
  let cell i = traced i (fun () -> f xs.(i)) in
  let indices = Array.init (Array.length xs) Fun.id in
  match pool with
  | None -> Array.map cell indices
  | Some p -> Lrd_parallel.Pool.map p cell indices

let psurface ?pool ~xs ~ys ~f () =
  let nx = Array.length xs and ny = Array.length ys in
  Lrd_obs.Obs.Counter.add m_cells (nx * ny);
  let cell ix iy = traced ((iy * nx) + ix) (fun () -> f xs.(ix) ys.(iy)) in
  let ixs = Array.init nx Fun.id and iys = Array.init ny Fun.id in
  match pool with
  | None -> Array.map (fun iy -> Array.map (fun ix -> cell ix iy) ixs) iys
  | Some p -> Lrd_parallel.Pool.map2_grid p ~xs:ixs ~ys:iys ~f:cell

let cell_key x = Printf.sprintf "%h" x

(* Only the benchmark harness still names a policy. *)
type gap_policy = Uniform

(* Every cell is one cold solve of the state the figure's callback
   made, on its own pool task, so [state] runs on pool domains. *)
let scheduled_surface ?pool ?policy:(_ : gap_policy option) ~xs ~ys ~state
    () =
  let module State = Lrd_core.Solver.State in
  psurface ?pool ~xs ~ys
    ~f:(fun x y ->
      let st = state x y in
      State.run st;
      State.result st)
    ()

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
