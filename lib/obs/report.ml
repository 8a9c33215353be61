(* Offline analyzer for Chrome-trace journals (the files Obs.Trace
   exports and the CLI/bench write with --trace).  Everything here is a
   pure function of the journal's contents: timestamps come from the
   file, ordering is fixed by explicit sorts, and the JSON rendering
   goes through the deterministic Json printer — so the same journal
   always yields byte-identical report output, which is what makes the
   reports diffable across reruns and CI uploads. *)

let schema = "lrd-trace-report/1"

(* One journal event, timestamps in seconds (the chrome file stores
   microseconds).  Metadata events (ph "M") are dropped at parse time. *)
type event = {
  name : string;
  phase : char;  (* 'B' | 'E' | 'i' *)
  ts : float;
  tid : int;
  arg : int option;
}

type phase_stats = {
  phase_name : string;
  count : int;
  total : float;
  p50 : float;
  p95 : float;
  max : float;
}

type domain_util = {
  domain : int;
  busy : float;
  idle : float;
  utilization : float;
}

type pool_stats = { tasks : int }

type cell = { index : int; slices : int; seconds : float }

type critical_path = { path : int list; path_seconds : float }

type t = {
  events : int;
  dropped_unmatched : int;
  extent : float;
  phases : phase_stats list;
  domains : domain_util list;
  pool : pool_stats;
  cells : cell list;  (* slowest first, index ascending on ties *)
  critical : critical_path option;
}

(* ------------------------------------------------------------------ *)
(* Journal loading *)

let event_of_json v =
  match (Json.member "name" v, Json.member "ph" v, Json.member "ts" v) with
  | Some (Json.Str name), Some (Json.Str ph), Some ts_v when ph <> "M" -> (
      match Json.to_float_opt ts_v with
      | None -> None
      | Some ts_us ->
          let tid =
            match Option.bind (Json.member "tid" v) Json.to_float_opt with
            | Some f when Float.is_integer f -> int_of_float f
            | _ -> 0
          in
          let arg =
            match Json.member "args" v with
            | Some args -> (
                match Option.bind (Json.member "v" args) Json.to_float_opt with
                | Some f when Float.is_integer f -> Some (int_of_float f)
                | _ -> None)
            | None -> None
          in
          let phase =
            match ph with "B" -> 'B' | "E" -> 'E' | _ -> 'i'
          in
          Some { name; phase; ts = ts_us *. 1e-6; tid; arg })
  | _ -> None

let events_of_json v =
  match v with
  | Json.List entries -> Ok (List.filter_map event_of_json entries)
  | _ -> Error "not a Chrome trace journal (expected a top-level array)"

(* ------------------------------------------------------------------ *)
(* Quantiles over an ascending-sorted duration array: the conservative
   "value at ceil(q*n)" convention, exact and deterministic. *)

let quantile sorted ~q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (k - 1)))

(* Merge [lo, hi) intervals (sorted by lo) and sum their union length. *)
let union_length intervals =
  match List.sort (fun (a, _) (b, _) -> Float.compare a b) intervals with
  | [] -> 0.0
  | (lo0, hi0) :: rest ->
      let total, open_lo, open_hi =
        List.fold_left
          (fun (total, lo, hi) (a, b) ->
            if a <= hi then (total, lo, Float.max hi b)
            else (total +. (hi -. lo), a, b))
          (0.0, lo0, hi0) rest
      in
      total +. (open_hi -. open_lo)

(* ------------------------------------------------------------------ *)
(* Analysis *)

let analyze events =
  (* Pair B/E slices per (tid, name) with a stack, so identically named
     spans may nest (solver/level does).  An E with no open B — the
     journal's ring evicted the B — is dropped and counted, as is a B
     left open at the end of the journal. *)
  let stacks : (int * string, float list ref) Hashtbl.t = Hashtbl.create 64 in
  let durations : (string, float list ref) Hashtbl.t = Hashtbl.create 64 in
  let depth : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
  let open_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let busy : (int, (float * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let tids = ref [] in
  let cell_time : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let cell_slices : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let warm : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let unmatched = ref 0 in
  let tasks = ref 0 in
  let get tbl key mk =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = mk () in
        Hashtbl.add tbl key v;
        v
  in
  List.iter
    (fun e ->
      if not (List.mem e.tid !tids) then tids := e.tid :: !tids;
      match e.phase with
      | 'B' ->
          if e.name = "pool/task" then incr tasks;
          let st = get stacks (e.tid, e.name) (fun () -> ref []) in
          st := e.ts :: !st;
          (* pool/idle slices are the workers' parked time — they pair
             into the phase table like any span but must not count as
             busy coverage. *)
          if e.name <> "pool/idle" then begin
            let d = get depth e.tid (fun () -> ref 0) in
            if !d = 0 then Hashtbl.replace open_ts e.tid e.ts;
            incr d
          end
      | 'E' -> (
          let st = get stacks (e.tid, e.name) (fun () -> ref []) in
          match !st with
          | [] -> incr unmatched
          | t0 :: rest ->
              st := rest;
              let dt = Float.max 0.0 (e.ts -. t0) in
              let ds = get durations e.name (fun () -> ref []) in
              ds := dt :: !ds;
              if e.name = "sweep/slice" then
                Option.iter
                  (fun i ->
                    Hashtbl.replace cell_time i
                      (Option.value ~default:0.0
                         (Hashtbl.find_opt cell_time i)
                      +. dt);
                    Hashtbl.replace cell_slices i
                      (Option.value ~default:0
                         (Hashtbl.find_opt cell_slices i)
                      + 1))
                  e.arg;
              if e.name <> "pool/idle" then begin
                let d = get depth e.tid (fun () -> ref 0) in
                if !d > 0 then begin
                  decr d;
                  if !d = 0 then
                    match Hashtbl.find_opt open_ts e.tid with
                    | Some lo ->
                        let b = get busy e.tid (fun () -> ref []) in
                        b := (lo, e.ts) :: !b
                    | None -> ()
                end
              end)
      | _ ->
          if e.name = "sweep/warm_start" then
            Option.iter (fun i -> Hashtbl.replace warm i ()) e.arg)
    events;
  (* A B still open at the end of the journal never became a slice. *)
  Hashtbl.iter (fun _ st -> unmatched := !unmatched + List.length !st) stacks;
  let ts_list = List.map (fun e -> e.ts) events in
  let extent =
    match ts_list with
    | [] -> 0.0
    | t :: rest ->
        let lo = List.fold_left Float.min t rest
        and hi = List.fold_left Float.max t rest in
        hi -. lo
  in
  let phases =
    Hashtbl.fold (fun name ds acc -> (name, !ds) :: acc) durations []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (phase_name, ds) ->
           let sorted = Array.of_list ds in
           Array.sort Float.compare sorted;
           {
             phase_name;
             count = Array.length sorted;
             total = Array.fold_left ( +. ) 0.0 sorted;
             p50 = quantile sorted ~q:0.5;
             p95 = quantile sorted ~q:0.95;
             max = sorted.(Array.length sorted - 1);
           })
  in
  let domains =
    List.sort compare !tids
    |> List.map (fun tid ->
           let b =
             match Hashtbl.find_opt busy tid with Some b -> !b | None -> []
           in
           let busy = union_length b in
           let idle = Float.max 0.0 (extent -. busy) in
           {
             domain = tid;
             busy;
             idle;
             utilization = (if extent > 0.0 then busy /. extent else 0.0);
           })
  in
  let pool = { tasks = !tasks } in
  let cells =
    Hashtbl.fold
      (fun index seconds acc ->
        {
          index;
          slices =
            Option.value ~default:0 (Hashtbl.find_opt cell_slices index);
          seconds;
        }
        :: acc)
      cell_time []
    |> List.sort (fun a b ->
           match Float.compare b.seconds a.seconds with
           | 0 -> compare a.index b.index
           | c -> c)
  in
  (* Critical path: chain(i) = time(i) + chain(i - 1) when cell i was
     warm-started (the scheduler seeds cell i from cell i - 1, its left
     neighbour in the row — see Sweep.scheduled_surface).  Cold cells
     start fresh chains.  Computed in ascending index order so every
     predecessor is settled before its successor. *)
  let critical =
    if cells = [] then None
    else begin
      let by_index =
        List.sort (fun a b -> compare a.index b.index) cells
      in
      let chain : (int, float) Hashtbl.t = Hashtbl.create 64 in
      let best = ref (0, neg_infinity) in
      List.iter
        (fun c ->
          let prev =
            if Hashtbl.mem warm c.index then
              Option.value ~default:0.0
                (Hashtbl.find_opt chain (c.index - 1))
            else 0.0
          in
          let total = c.seconds +. prev in
          Hashtbl.replace chain c.index total;
          if total > snd !best then best := (c.index, total))
        by_index;
      let rec walk i acc =
        if Hashtbl.mem warm i && Hashtbl.mem chain (i - 1) then
          walk (i - 1) (i :: acc)
        else i :: acc
      in
      Some { path = walk (fst !best) []; path_seconds = snd !best }
    end
  in
  {
    events = List.length events;
    dropped_unmatched = !unmatched;
    extent;
    phases;
    domains;
    pool;
    cells;
    critical;
  }

let of_chrome_json v = Result.map analyze (events_of_json v)

let of_file path =
  match Json.of_file path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok v -> (
      match of_chrome_json v with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok r -> Ok r)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let default_top = 10

let top_cells ~top t =
  List.filteri (fun i _ -> i < top) t.cells

let to_json ?(top = default_top) t =
  let num f = Json.Num f in
  let inum i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("events", inum t.events);
      ("unmatched_slices", inum t.dropped_unmatched);
      ("extent_seconds", num t.extent);
      ( "phases",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("name", Json.Str p.phase_name);
                   ("count", inum p.count);
                   ("total_seconds", num p.total);
                   ("p50_seconds", num p.p50);
                   ("p95_seconds", num p.p95);
                   ("max_seconds", num p.max);
                 ])
             t.phases) );
      ( "domains",
        Json.List
          (List.map
             (fun d ->
               Json.Obj
                 [
                   ("domain", inum d.domain);
                   ("busy_seconds", num d.busy);
                   ("idle_seconds", num d.idle);
                   ("utilization", num d.utilization);
                 ])
             t.domains) );
      ("pool", Json.Obj [ ("tasks", inum t.pool.tasks) ]);
      ( "slowest_cells",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("cell", inum c.index);
                   ("slices", inum c.slices);
                   ("seconds", num c.seconds);
                 ])
             (top_cells ~top t)) );
      ( "critical_path",
        match t.critical with
        | None -> Json.Null
        | Some cp ->
            Json.Obj
              [
                ("cells", Json.List (List.map inum cp.path));
                ("seconds", num cp.path_seconds);
              ] );
    ]

let render ?(top = default_top) t =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "trace report: %d events over %.6f s" t.events t.extent;
  if t.dropped_unmatched > 0 then
    pf " (%d unmatched slice halves)" t.dropped_unmatched;
  pf "\n\n";
  if t.phases <> [] then begin
    pf "%-28s %8s %12s %12s %12s %12s\n" "phase" "count" "total_s" "p50_s"
      "p95_s" "max_s";
    List.iter
      (fun p ->
        pf "%-28s %8d %12.6f %12.6f %12.6f %12.6f\n" p.phase_name p.count
          p.total p.p50 p.p95 p.max)
      t.phases;
    pf "\n"
  end;
  if t.domains <> [] then begin
    pf "%-8s %12s %12s %12s\n" "domain" "busy_s" "idle_s" "util";
    List.iter
      (fun d ->
        pf "%-8d %12.6f %12.6f %11.1f%%\n" d.domain d.busy d.idle
          (100.0 *. d.utilization))
      t.domains;
    pf "\n"
  end;
  if t.pool.tasks > 0 then
    pf "pool: %d tasks\n\n" t.pool.tasks;
  (match top_cells ~top t with
  | [] -> ()
  | cells ->
      pf "slowest cells (top %d of %d):\n" (List.length cells)
        (List.length t.cells);
      pf "%-8s %8s %12s\n" "cell" "slices" "seconds";
      List.iter
        (fun c -> pf "%-8d %8d %12.6f\n" c.index c.slices c.seconds)
        cells;
      pf "\n");
  (match t.critical with
  | None -> ()
  | Some cp ->
      pf "critical path: %.6f s through %d cell(s): %s\n" cp.path_seconds
        (List.length cp.path)
        (String.concat " -> " (List.map string_of_int cp.path)));
  Buffer.contents b

(* A/B comparison: per-phase totals side by side, plus the headline
   aggregates.  Layout mirrors Diff.render so the two read alike. *)
let render_compare ~base ~current =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let names =
    List.sort_uniq String.compare
      (List.map (fun p -> p.phase_name) base.phases
      @ List.map (fun p -> p.phase_name) current.phases)
  in
  let find r name =
    List.find_opt (fun p -> p.phase_name = name) r.phases
  in
  pf "%-28s %12s %12s %8s\n" "phase (total_s)" "base" "current" "ratio";
  List.iter
    (fun name ->
      let fmt_v = function
        | None -> "-"
        | Some p -> Printf.sprintf "%.6f" p.total
      in
      let bp = find base name and cp = find current name in
      let ratio =
        match (bp, cp) with
        | Some bp, Some cp when bp.total > 0.0 ->
            Printf.sprintf "%.2fx" (cp.total /. bp.total)
        | _ -> "-"
      in
      pf "%-28s %12s %12s %8s\n" name (fmt_v bp) (fmt_v cp) ratio)
    names;
  let headline label f =
    let bv = f base and cv = f current in
    pf "%-28s %12.6f %12.6f %8s\n" label bv cv
      (if bv > 0.0 then Printf.sprintf "%.2fx" (cv /. bv) else "-")
  in
  headline "journal extent (s)" (fun r -> r.extent);
  headline "critical path (s)" (fun r ->
      match r.critical with Some cp -> cp.path_seconds | None -> 0.0);
  Buffer.contents b
