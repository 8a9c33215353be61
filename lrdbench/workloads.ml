(* The two workloads.  A run repeats whole passes over the workload's
   fixed inputs for the requested number of seconds, each pass on fresh
   contexts set up outside the timed region, then checks every output it
   produced.

   Timing statistic: every item (figure or solve) is timed
   once per pass, and its latency is the fastest of those repetitions.
   On a shared host, contention from other tenants comes in bursts of
   seconds that only ever slow a repetition down; interleaving the
   repetitions across passes and keeping each item's fastest one
   measures the program rather than its neighbours. *)

module E = Lrd_experiments
module D = E.Data
module Solver = Lrd_core.Solver

type outcome = {
  setups : float list;  (** Seconds per full-scale context set-up. *)
  items : (string * float list) list;
      (** Each timed item with the seconds of its repetitions. *)
  per_pass : int;  (** Work units per pass: entries, cells or solves. *)
  top_heap_mb : float;
  attempted : int;
  failed : int;
  notes : string list;  (** Human-readable result lines. *)
}

let floor_latencies o =
  List.map (fun (_, reps) -> List.fold_left Float.min infinity reps) o.items

let force ctx =
  ignore (D.mtv ctx);
  ignore (D.bellcore ctx);
  ignore (D.mtv_marginal ctx);
  ignore (D.bc_marginal ctx);
  ignore (D.mtv_mean_epoch ctx);
  ignore (D.bc_mean_epoch ctx)

(* A context with its shared ingredients forced, and the seconds that
   took.  The ingredients are the paper's: the traces and fitted models
   of the context's default seed, as [lrd experiment] and [lrd solve] use
   them. *)
let setup ?jobs ?(quick = false) () =
  Util.timed (fun () ->
      let ctx = D.create ?jobs ~quick () in
      force ctx;
      ctx)

(* [count] set-ups in a row, keeping the last context (the others are
   torn down) and every set-up time. *)
let setups count =
  let all = List.init count (fun _ -> setup ()) in
  let ctx = fst (List.nth all (count - 1)) in
  List.iteri (fun i (c, _) -> if i < count - 1 then D.teardown c) all;
  (ctx, List.map snd all)

(* Runs passes while the next one, expected to take as long as the last,
   would end within [seconds] of the first one's start (at least two, so
   every item has a repetition to compare against). *)
let repeat ~seconds pass =
  let start = Util.now () in
  let rec go acc last =
    if List.length acc >= 2 && Util.now () -. start +. last > seconds then
      List.rev acc
    else
      let t0 = Util.now () in
      let v = pass () in
      go (v :: acc) (Util.now () -. t0)
  in
  go [] 0.0

(* Transposes per-pass lists of (item, (value, seconds)) into per-item
   lists across passes. *)
let by_item passes =
  List.map
    (fun (id, _) -> (id, List.map (List.assoc id) passes))
    (List.hd passes)

let count_failed fails = List.length (List.filter (fun (_, f) -> f <> []) fails)

let first_failure fails =
  match List.find_opt (fun (_, f) -> f <> []) fails with
  | None -> []
  | Some (what, f) -> [ Printf.sprintf "FAILED %s: %s" what (String.concat "; " f) ]

let same_everywhere equal = function
  | [] -> true
  | v :: rest -> List.for_all (equal v) rest

(* ------------------------------------------------------------------ *)
(* surfaces *)

let surfaces_jobs = 2

let surfaces_pass () =
  let ctx, t_setup = setup ~jobs:surfaces_jobs () in
  Fun.protect
    ~finally:(fun () -> D.teardown ctx)
    (fun () ->
      ( [ t_setup ],
        List.map
          (fun (id, compute) -> (id, Util.timed (fun () -> compute ctx)))
          Surfaces.figures ))

(* The certified intervals of every cell, from the benchmark's own
   scheduled sweeps on a fresh context. *)
let certified () =
  let ctx, _ = setup ~jobs:surfaces_jobs () in
  Fun.protect
    ~finally:(fun () -> D.teardown ctx)
    (fun () ->
      (ctx, List.map (fun spec -> (spec, Surfaces.run ctx spec)) (Surfaces.specs ctx)))

let cold_checks_per_figure = 2

let coords (spec : Surfaces.spec) =
  List.concat_map
    (fun iy -> List.init (Array.length spec.Surfaces.xs) (fun ix -> (ix, iy)))
    (List.init (Array.length spec.Surfaces.ys) Fun.id)

let cell_checks (spec : Surfaces.spec) ~x ~y r =
  Checks.interval r
    ~zero_buffer_loss:
      (Surfaces.zero_buffer_loss (spec.Surfaces.model ~x ~y)
         ~utilization:spec.Surfaces.utilization)

(* The seed picks the cells that are also solved cold. *)
let surfaces ~seed ~seconds =
  let rng = Lrd_rng.Rng.create ~seed in
  let runs = repeat ~seconds surfaces_pass in
  let top_heap_mb = Util.top_heap_mb () in
  let items = by_item (List.map snd runs) in
  let ctx, mirror = certified () in
  (* Every certified cell passes the interval checks; the same cell of
     every timed pass repeats the others bit for bit and agrees with the
     certified interval. *)
  let cell_fails =
    List.concat_map
      (fun (spec, results) ->
        let id = spec.Surfaces.id in
        let timed =
          List.map (fun ((s : E.Table.surface), _) -> s.E.Table.cells) (List.assoc id items)
        in
        List.map
          (fun (ix, iy) ->
            let r = results.(iy).(ix) in
            let values = List.map (fun c -> c.(iy).(ix)) timed in
            ( Printf.sprintf "%s[%d][%d]" id iy ix,
              cell_checks spec ~x:spec.Surfaces.xs.(ix) ~y:spec.Surfaces.ys.(iy) r
              @ Checks.midpoint (List.hd values) r
              @
              if same_everywhere Float.equal values then []
              else [ "differs between passes" ] ))
          (coords spec))
      mirror
  in
  (* Seeded cells of each figure, solved cold, must intersect their
     scheduled intervals. *)
  let cold_fails =
    List.concat_map
      (fun (spec, results) ->
        let cells = Array.of_list (coords spec) in
        List.init cold_checks_per_figure (fun _ ->
            let ix, iy = cells.(Lrd_rng.Rng.int rng ~bound:(Array.length cells)) in
            let x = spec.Surfaces.xs.(ix) and y = spec.Surfaces.ys.(iy) in
            let cold = Surfaces.solve_cold ctx spec ~x ~y in
            ( Printf.sprintf "%s[%d][%d] cold" spec.Surfaces.id iy ix,
              cell_checks spec ~x ~y cold @ Checks.intersect cold results.(iy).(ix) )))
      mirror
  in
  let fails = cell_fails @ cold_fails in
  let cells = List.length cell_fails in
  let uncertified =
    List.fold_left
      (fun n (_, results) ->
        Array.fold_left
          (Array.fold_left (fun n r -> if r.Solver.converged then n else n + 1))
          n results)
      0 mirror
  in
  {
    setups = List.concat_map fst runs;
    items = List.map (fun (id, reps) -> (id, List.map snd reps)) items;
    per_pass = cells;
    top_heap_mb;
    attempted = List.length fails;
    failed = count_failed fails;
    notes =
      [
        Printf.sprintf "jobs %d" surfaces_jobs;
        Printf.sprintf "uncertified_frac = %.6g (%d of %d certified cells)"
          (float_of_int uncertified /. float_of_int cells)
          uncertified cells;
      ]
      @ first_failure fails;
  }

(* ------------------------------------------------------------------ *)
(* solve-cold *)

(* Utilization x log-buffer strata per (trace, cutoff) group. *)
let strata = (4, 6)
let second_seed_strata = (2, 2)
let second_seed seed = Int64.logxor seed 0x5eedL

let solve_cold_inputs ~seed =
  Inputs.generate ~seed ~u_strata:(fst strata) ~b_strata:(snd strata)

let solve_all ctx inputs =
  List.mapi
    (fun k i -> (string_of_int k, Util.timed (fun () -> Inputs.solve ctx i)))
    (Array.to_list inputs)

let check_solves ctx inputs results =
  List.map2
    (fun i (_, (r, _)) ->
      ( Inputs.to_string i,
        Checks.interval r ~zero_buffer_loss:(Inputs.zero_buffer_loss ctx i) ))
    (Array.to_list inputs) results

let solve_cold_setups_per_pass = 2

let solve_cold ~seed ~seconds =
  let inputs = solve_cold_inputs ~seed in
  let runs =
    repeat ~seconds (fun () ->
        let ctx, t_setup = setups solve_cold_setups_per_pass in
        (t_setup, solve_all ctx inputs))
  in
  let top_heap_mb = Util.top_heap_mb () in
  let items = by_item (List.map snd runs) in
  let ctx, _ = setup () in
  let inputs2 =
    Inputs.generate ~seed:(second_seed seed) ~u_strata:(fst second_seed_strata)
      ~b_strata:(snd second_seed_strata)
  in
  let second = solve_all ctx inputs2 in
  let repeat_fails =
    List.map
      (fun (k, reps) ->
        ( k,
          if same_everywhere (fun a b -> compare a b = 0) (List.map fst reps) then []
          else [ "differs between passes" ] ))
      items
  in
  let fails =
    check_solves ctx inputs (snd (List.hd runs))
    @ repeat_fails
    @ check_solves ctx inputs2 second
  in
  let n = Array.length inputs in
  let uncertified =
    List.length
      (List.filter (fun (_, reps) -> not (fst (List.hd reps)).Solver.converged) items)
  in
  {
    setups = List.concat_map fst runs;
    items = List.map (fun (k, reps) -> (k, List.map snd reps)) items;
    per_pass = n;
    top_heap_mb;
    attempted = List.length fails;
    failed = count_failed fails;
    notes =
      [
        Printf.sprintf "inputs seed %Ld: %d solves, digest %s" seed n (Inputs.digest inputs);
        Printf.sprintf "second seed %Ld: %d solves checked, digest %s"
          (second_seed seed) (Array.length inputs2) (Inputs.digest inputs2);
        Printf.sprintf "uncertified_frac = %.6g (%d of %d solves)"
          (float_of_int uncertified /. float_of_int n)
          uncertified n;
      ]
      @ first_failure fails;
  }

let names = [ "surfaces"; "solve-cold" ]

let run name ~seed ~seconds =
  match name with
  | "surfaces" -> surfaces ~seed ~seconds
  | "solve-cold" -> solve_cold ~seed ~seconds
  | _ -> invalid_arg ("unknown workload " ^ name)
