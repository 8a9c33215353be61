(* Telemetry subsystem.  See the .mli for the contract; the points that
   shape the implementation:

   - The disabled path must be one branch and zero allocation, so every
     recording primitive opens with [if !enabled_flag then ...] and the
     flag is a plain [bool ref] (a single mutable word; racy reads are
     benign and the OCaml memory model rules out tearing).

   - Enabled recording must be lock-free, so counters, histograms and
     trajectories keep one cell per domain behind a [Domain.DLS] key,
     exactly like [Lrd_parallel.Arena]'s per-domain memo tables.  The
     DLS initializer registers the new cell in the instrument's cell
     list under the global registry mutex — a once-per-domain cost.

   - Floats that must be updated without allocation live in [float
     array] cells, never in mutable record fields mixed with non-float
     fields (such fields are boxed, and storing to them allocates). *)

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b
let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Registry *)

type histogram_data = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list;
}

type value =
  | Counter of { total : int; per_domain : (int * int) list }
  | Gauge of float option
  | Histogram of histogram_data
  | Trajectory of (int * float array) list

type snapshot = (string * value) list

(* One mutex guards instrument creation, per-domain cell registration
   and snapshotting.  Recording never takes it. *)
let lock = Mutex.create ()

type instrument = {
  name : string;
  kind : string;  (* for duplicate-name diagnostics *)
  read : unit -> value;  (* called under [lock] *)
  clear : unit -> unit;  (* called under [lock] *)
}

let instruments : (string, instrument) Hashtbl.t = Hashtbl.create 64

(* Each instrument module memoizes its own typed table by name; this
   shared helper holds the cross-kind bookkeeping.  Must be called
   under [lock]. *)
let register_locked ~kind ~name ~read ~clear =
  (match Hashtbl.find_opt instruments name with
  | Some existing ->
      invalid_arg
        (Printf.sprintf
           "Obs: instrument %S already registered as a %s (requested %s)" name
           existing.kind kind)
  | None -> ());
  Hashtbl.add instruments name { name; kind; read; clear }

let domain_id () = (Domain.self () :> int)

(* Per-domain cells: a DLS key whose initializer also appends the fresh
   cell to the instrument's cell list so snapshots can reach every
   domain's cell.  Cells of finished domains stay in the list (their
   counts remain part of the totals). *)
let dls_cells make_cell =
  let cells : (int * 'a) list ref = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let cell = make_cell () in
        let id = domain_id () in
        Mutex.protect lock (fun () -> cells := (id, cell) :: !cells);
        cell)
  in
  (key, cells)

let sorted_cells cells =
  List.sort (fun (a, _) (b, _) -> compare a b) !cells

(* ------------------------------------------------------------------ *)
(* Counter *)

module Counter = struct
  type cell = { mutable n : int }

  type t = { key : cell Domain.DLS.key; cells : (int * cell) list ref }

  let table : (string, t) Hashtbl.t = Hashtbl.create 32

  let make name =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some t -> t
        | None ->
            let key, cells = dls_cells (fun () -> { n = 0 }) in
            let t = { key; cells } in
            register_locked ~kind:"counter" ~name
              ~read:(fun () ->
                let per_domain =
                  List.map (fun (id, c) -> (id, c.n)) (sorted_cells t.cells)
                in
                let total =
                  List.fold_left (fun acc (_, n) -> acc + n) 0 per_domain
                in
                Counter { total; per_domain })
              ~clear:(fun () -> List.iter (fun (_, c) -> c.n <- 0) !(t.cells));
            Hashtbl.add table name t;
            t)

  let add t k =
    if !enabled_flag then begin
      if k < 0 then invalid_arg "Obs.Counter.add: negative increment";
      let c = Domain.DLS.get t.key in
      c.n <- c.n + k
    end

  let incr t = add t 1

  let value t =
    Mutex.protect lock (fun () ->
        List.fold_left (fun acc (_, c) -> acc + c.n) 0 !(t.cells))

  let per_domain t =
    Mutex.protect lock (fun () ->
        List.map (fun (id, c) -> (id, c.n)) (sorted_cells t.cells))
end

(* ------------------------------------------------------------------ *)
(* Gauge *)

module Gauge = struct
  (* The float lives in a one-slot float array so [set] stores unboxed;
     [written] is a separate mutable bool (a word store). *)
  type t = { slot : float array; mutable written : bool }

  let table : (string, t) Hashtbl.t = Hashtbl.create 16

  let make name =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some t -> t
        | None ->
            let t = { slot = [| 0.0 |]; written = false } in
            register_locked ~kind:"gauge" ~name
              ~read:(fun () ->
                Gauge (if t.written then Some t.slot.(0) else None))
              ~clear:(fun () ->
                t.slot.(0) <- 0.0;
                t.written <- false);
            Hashtbl.add table name t;
            t)

  let set t v =
    if !enabled_flag then begin
      t.slot.(0) <- v;
      t.written <- true
    end

  let value t = if t.written then Some t.slot.(0) else None
end

(* ------------------------------------------------------------------ *)
(* Histogram *)

module Histogram = struct
  let min_exponent = -30
  let max_exponent = 30

  (* bucket 0: underflow (v < 2^min_exponent, including <= 0);
     bucket i >= 1: exponent e = min_exponent + i - 1, range
     [2^e, 2^(e+1)); values >= 2^(max_exponent+1) clamp into the top. *)
  let bucket_count = max_exponent - min_exponent + 2

  let bucket_index v =
    if not (v >= ldexp 1.0 min_exponent) then 0 (* incl. nan, <= 0 *)
    else if v >= ldexp 1.0 (max_exponent + 1) then bucket_count - 1
    else begin
      (* frexp is exact: v = m * 2^e with m in [0.5, 1), so
         floor(log2 v) = e - 1 even at bucket boundaries. *)
      let _, e = Float.frexp v in
      e - 1 - min_exponent + 1
    end

  let bucket_lower i =
    if i < 0 || i >= bucket_count then
      invalid_arg "Obs.Histogram.bucket_lower: bucket out of range"
    else if i = 0 then neg_infinity
    else ldexp 1.0 (min_exponent + i - 1)

  type cell = {
    mutable n : int;
    stats : float array;  (* sum, min, max — unboxed float stores *)
    counts : int array;
  }

  type t = { key : cell Domain.DLS.key; cells : (int * cell) list ref }

  let fresh_cell () =
    { n = 0; stats = [| 0.0; infinity; neg_infinity |]; counts = Array.make bucket_count 0 }

  let merged t =
    let counts = Array.make bucket_count 0 in
    let count = ref 0 and sum = ref 0.0 in
    let mn = ref infinity and mx = ref neg_infinity in
    List.iter
      (fun (_, c) ->
        count := !count + c.n;
        sum := !sum +. c.stats.(0);
        if c.stats.(1) < !mn then mn := c.stats.(1);
        if c.stats.(2) > !mx then mx := c.stats.(2);
        Array.iteri (fun i k -> counts.(i) <- counts.(i) + k) c.counts)
      !(t.cells);
    let buckets = ref [] in
    for i = bucket_count - 1 downto 0 do
      if counts.(i) > 0 then buckets := (bucket_lower i, counts.(i)) :: !buckets
    done;
    { count = !count; sum = !sum; min = !mn; max = !mx; buckets = !buckets }

  let table : (string, t) Hashtbl.t = Hashtbl.create 32

  let make name =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some t -> t
        | None ->
            let key, cells = dls_cells fresh_cell in
            let t = { key; cells } in
            register_locked ~kind:"histogram" ~name
              ~read:(fun () -> Histogram (merged t))
              ~clear:(fun () ->
                List.iter
                  (fun (_, c) ->
                    c.n <- 0;
                    c.stats.(0) <- 0.0;
                    c.stats.(1) <- infinity;
                    c.stats.(2) <- neg_infinity;
                    Array.fill c.counts 0 bucket_count 0)
                  !(t.cells));
            Hashtbl.add table name t;
            t)

  let observe t v =
    if !enabled_flag then begin
      let c = Domain.DLS.get t.key in
      c.n <- c.n + 1;
      c.stats.(0) <- c.stats.(0) +. v;
      if v < c.stats.(1) then c.stats.(1) <- v;
      if v > c.stats.(2) then c.stats.(2) <- v;
      let i = bucket_index v in
      c.counts.(i) <- c.counts.(i) + 1
    end

  let count t =
    Mutex.protect lock (fun () ->
        List.fold_left (fun acc (_, c) -> acc + c.n) 0 !(t.cells))
end

(* ------------------------------------------------------------------ *)
(* Trajectory *)

module Trajectory = struct
  type cell = { buf : float array; mutable pos : int; mutable len : int }

  type t = { key : cell Domain.DLS.key; cells : (int * cell) list ref }

  let chronological c =
    let cap = Array.length c.buf in
    if c.len < cap then Array.sub c.buf 0 c.len
    else Array.init cap (fun i -> c.buf.((c.pos + i) mod cap))

  let table : (string, t) Hashtbl.t = Hashtbl.create 16

  let make ?(capacity = 64) name =
    if capacity < 1 then invalid_arg "Obs.Trajectory.make: capacity < 1";
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some t -> t
        | None ->
            let key, cells =
              dls_cells (fun () ->
                  { buf = Array.make capacity 0.0; pos = 0; len = 0 })
            in
            let t = { key; cells } in
            register_locked ~kind:"trajectory" ~name
              ~read:(fun () ->
                Trajectory
                  (List.map
                     (fun (id, c) -> (id, chronological c))
                     (sorted_cells t.cells)))
              ~clear:(fun () ->
                List.iter
                  (fun (_, c) ->
                    c.pos <- 0;
                    c.len <- 0)
                  !(t.cells));
            Hashtbl.add table name t;
            t)

  let record t v =
    if !enabled_flag then begin
      let c = Domain.DLS.get t.key in
      let cap = Array.length c.buf in
      c.buf.(c.pos) <- v;
      c.pos <- (c.pos + 1) mod cap;
      if c.len < cap then c.len <- c.len + 1
    end
end

(* ------------------------------------------------------------------ *)
(* Span *)

module Span = struct
  type t = Histogram.t

  let make name = Histogram.make name
  let start () = if !enabled_flag then now () else neg_infinity

  let stop t t0 =
    if !enabled_flag && t0 > neg_infinity then
      Histogram.observe t (now () -. t0)

end

(* ------------------------------------------------------------------ *)
(* Snapshot and export *)

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter (fun _ i -> i.clear ()) instruments)

let snapshot () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun _ i acc -> (i.name, i.read ()) :: acc) instruments []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

let find s name = List.assoc_opt name s

let histogram_quantile h ~q =
  if h.count = 0 then nan
  else begin
    let target = q *. float_of_int h.count in
    let rec go acc = function
      | [] -> h.max
      | (lower, n) :: rest ->
          let acc = acc + n in
          if float_of_int acc >= target then
            if lower = neg_infinity then h.min else lower
          else go acc rest
    in
    go 0 h.buckets
  end

let pp_text fmt s =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter { total; per_domain } ->
          Format.fprintf fmt "counter    %-40s %d" name total;
          if List.length per_domain > 1 then begin
            Format.fprintf fmt "  [";
            List.iteri
              (fun i (id, n) ->
                Format.fprintf fmt "%sd%d:%d" (if i > 0 then " " else "") id n)
              per_domain;
            Format.fprintf fmt "]"
          end;
          Format.fprintf fmt "@."
      | Gauge g ->
          Format.fprintf fmt "gauge      %-40s %s@." name
            (match g with None -> "unset" | Some v -> Printf.sprintf "%.6g" v)
      | Histogram h ->
          if h.count = 0 then
            Format.fprintf fmt "histogram  %-40s empty@." name
          else
            Format.fprintf fmt
              "histogram  %-40s count=%d mean=%.4g min=%.4g p50=%.4g \
               p90=%.4g max=%.4g@."
              name h.count
              (h.sum /. float_of_int h.count)
              h.min
              (histogram_quantile h ~q:0.5)
              (histogram_quantile h ~q:0.9)
              h.max
      | Trajectory domains ->
          Format.fprintf fmt "trajectory %-40s" name;
          if domains = [] then Format.fprintf fmt " empty@."
          else begin
            List.iter
              (fun (id, points) ->
                Format.fprintf fmt " d%d:[" id;
                Array.iteri
                  (fun i p ->
                    Format.fprintf fmt "%s%.4g" (if i > 0 then " " else "") p)
                  points;
                Format.fprintf fmt "]")
              domains;
            Format.fprintf fmt "@."
          end)
    s

(* JSON rendering: fixed key order, sorted instruments, %.17g floats
   (shortest round-trippable form is not needed — determinism is), and
   non-finite floats as null since JSON has no spelling for them. *)
let json_float b v =
  if Float.is_finite v then Buffer.add_string b (Printf.sprintf "%.17g" v)
  else Buffer.add_string b "null"

let json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let to_json s =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"metrics\": [\n";
  let last = List.length s - 1 in
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b "  {\"name\": ";
      json_string b name;
      (match v with
      | Counter { total; per_domain } ->
          Buffer.add_string b ", \"kind\": \"counter\", \"total\": ";
          Buffer.add_string b (string_of_int total);
          Buffer.add_string b ", \"per_domain\": [";
          List.iteri
            (fun j (id, n) ->
              if j > 0 then Buffer.add_string b ", ";
              Buffer.add_string b
                (Printf.sprintf "{\"domain\": %d, \"value\": %d}" id n))
            per_domain;
          Buffer.add_string b "]"
      | Gauge g ->
          Buffer.add_string b ", \"kind\": \"gauge\", \"value\": ";
          (match g with
          | None -> Buffer.add_string b "null"
          | Some v -> json_float b v)
      | Histogram h ->
          Buffer.add_string b ", \"kind\": \"histogram\", \"count\": ";
          Buffer.add_string b (string_of_int h.count);
          Buffer.add_string b ", \"sum\": ";
          json_float b h.sum;
          if h.count > 0 then begin
            Buffer.add_string b ", \"min\": ";
            json_float b h.min;
            Buffer.add_string b ", \"max\": ";
            json_float b h.max
          end;
          Buffer.add_string b ", \"buckets\": [";
          List.iteri
            (fun j (lower, n) ->
              if j > 0 then Buffer.add_string b ", ";
              Buffer.add_string b "{\"lower\": ";
              json_float b lower;
              Buffer.add_string b (Printf.sprintf ", \"count\": %d}" n))
            h.buckets;
          Buffer.add_string b "]"
      | Trajectory domains ->
          Buffer.add_string b ", \"kind\": \"trajectory\", \"domains\": [";
          List.iteri
            (fun j (id, points) ->
              if j > 0 then Buffer.add_string b ", ";
              Buffer.add_string b
                (Printf.sprintf "{\"domain\": %d, \"points\": [" id);
              Array.iteri
                (fun k p ->
                  if k > 0 then Buffer.add_string b ", ";
                  json_float b p)
                points;
              Buffer.add_string b "]}")
            domains;
          Buffer.add_string b "]");
      Buffer.add_string b (if i = last then "}\n" else "},\n"))
    s;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Trace: structured event journal.

   One ring per domain (not per instrument): a trace is a single merged
   timeline, and per-domain rings keep recording lock-free exactly like
   the metric cells above.  Each ring holds the most recent [capacity]
   events in parallel arrays (string pointers, a phase byte, unboxed
   floats, ints), so recording allocates nothing even when enabled —
   the only allocation on the whole enabled path is the once-per-domain
   ring creation.  Event order within a domain is the record order (a
   per-domain sequence number survives eviction because the ring always
   holds the *last* [len] records); the cross-domain merge sorts by
   (timestamp, domain, sequence), which is deterministic for any fixed
   recorded contents. *)

module Trace = struct
  let trace_flag = ref false
  let enabled () = !trace_flag
  let set_enabled b = trace_flag := b

  (* Timestamps are seconds since this process epoch, so they are small
     (microsecond precision survives the float) and trace viewers start
     near zero. *)
  let epoch = Unix.gettimeofday ()

  type phase = Begin | End | Instant

  type event = {
    name : string;
    phase : phase;
    ts : float;
    domain : int;
    seq : int;
    arg : int option;
  }

  (* [min_int] marks "no payload" so the arg slot stays an unboxed int
     store; an explicit [~arg:min_int] is indistinguishable from no arg,
     which no caller has a reason to pass. *)
  let no_arg = min_int

  type cell = {
    mutable names : string array;
    mutable phases : Bytes.t;
    mutable ts : float array;
    mutable args : int array;
    mutable pos : int;  (* next write index *)
    mutable len : int;  (* live events, <= capacity *)
    mutable next_seq : int;  (* per-domain events ever recorded *)
    mutable dropped : int;  (* events evicted by ring overflow *)
  }

  let default_capacity = 8192
  let capacity_ref = ref default_capacity
  let capacity () = !capacity_ref

  let alloc_cell cap =
    {
      names = Array.make cap "";
      phases = Bytes.make cap 'i';
      ts = Array.make cap 0.0;
      args = Array.make cap no_arg;
      pos = 0;
      len = 0;
      next_seq = 0;
      dropped = 0;
    }

  let cells : (int * cell) list ref = ref []

  let key =
    Domain.DLS.new_key (fun () ->
        Mutex.protect lock (fun () ->
            let cell = alloc_cell !capacity_ref in
            cells := (domain_id (), cell) :: !cells;
            cell))

  let record phase name arg =
    let c = Domain.DLS.get key in
    let cap = Array.length c.names in
    if c.len = cap then c.dropped <- c.dropped + 1 else c.len <- c.len + 1;
    let p = c.pos in
    Array.unsafe_set c.names p name;
    Bytes.unsafe_set c.phases p phase;
    Array.unsafe_set c.ts p (Unix.gettimeofday () -. epoch);
    Array.unsafe_set c.args p arg;
    c.pos <- (p + 1) mod cap;
    c.next_seq <- c.next_seq + 1

  let instant ?(arg = no_arg) name = if !trace_flag then record 'i' name arg
  let begin_ ?(arg = no_arg) name = if !trace_flag then record 'B' name arg
  let end_ ?(arg = no_arg) name = if !trace_flag then record 'E' name arg

  let with_span ?arg name f =
    if not !trace_flag then f ()
    else begin
      begin_ ?arg name;
      match f () with
      | r ->
          end_ ?arg name;
          r
      | exception e ->
          end_ ?arg name;
          raise e
    end

  (* Oldest-first events of one ring.  When the ring has wrapped the
     oldest live record sits at [pos]; its sequence number is
     [next_seq - len]. *)
  let cell_events id c =
    let cap = Array.length c.names in
    List.init c.len (fun k ->
        let p = if c.len < cap then k else (c.pos + k) mod cap in
        let a = c.args.(p) in
        {
          name = c.names.(p);
          phase =
            (match Bytes.get c.phases p with
            | 'B' -> Begin
            | 'E' -> End
            | _ -> Instant);
          ts = c.ts.(p);
          domain = id;
          seq = c.next_seq - c.len + k;
          arg = (if a = no_arg then None else Some a);
        })

  let events () =
    Mutex.protect lock (fun () ->
        List.concat_map (fun (id, c) -> cell_events id c) !cells)
    |> List.sort (fun (a : event) (b : event) ->
           compare (a.ts, a.domain, a.seq) (b.ts, b.domain, b.seq))

  let dropped () =
    Mutex.protect lock (fun () ->
        List.fold_left (fun acc (_, c) -> acc + c.dropped) 0 !cells)

  let reset () =
    Mutex.protect lock (fun () ->
        List.iter
          (fun (_, c) ->
            c.pos <- 0;
            c.len <- 0;
            c.next_seq <- 0;
            c.dropped <- 0)
          !cells)

  let set_capacity n =
    if n < 1 then invalid_arg "Obs.Trace.set_capacity: capacity < 1";
    Mutex.protect lock (fun () ->
        capacity_ref := n;
        List.iter
          (fun (_, c) ->
            c.names <- Array.make n "";
            c.phases <- Bytes.make n 'i';
            c.ts <- Array.make n 0.0;
            c.args <- Array.make n no_arg;
            c.pos <- 0;
            c.len <- 0;
            c.next_seq <- 0;
            c.dropped <- 0)
          !cells)

  (* Chrome trace-event JSON: a flat array of event objects (the format
     Perfetto and chrome://tracing load directly).  Domains map to tids
     under one pid; metadata events name the tracks.  Timestamps are
     microseconds. *)
  let to_chrome_json () =
    let evs = events () in
    let tids =
      List.sort_uniq compare (List.map (fun e -> e.domain) evs)
    in
    let b = Buffer.create 4096 in
    Buffer.add_string b "[\n";
    let first = ref true in
    let sep () =
      if !first then first := false else Buffer.add_string b ",\n"
    in
    sep ();
    Buffer.add_string b
      "{\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0, \"pid\": 0, \
       \"tid\": 0, \"args\": {\"name\": \"lrd\"}}";
    List.iter
      (fun tid ->
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\": \"thread_name\", \"ph\": \"M\", \"ts\": 0, \
              \"pid\": 0, \"tid\": %d, \"args\": {\"name\": \"domain %d\"}}"
             tid tid))
      tids;
    List.iter
      (fun e ->
        sep ();
        Buffer.add_string b "{\"name\": ";
        json_string b e.name;
        let ph, scope =
          match e.phase with
          | Begin -> ("B", "")
          | End -> ("E", "")
          | Instant -> ("i", ", \"s\": \"t\"")
        in
        Buffer.add_string b
          (Printf.sprintf ", \"ph\": \"%s\", \"ts\": %.3f, \"pid\": 0, \
                           \"tid\": %d%s"
             ph (e.ts *. 1e6) e.domain scope);
        (match e.arg with
        | None -> ()
        | Some v ->
            Buffer.add_string b (Printf.sprintf ", \"args\": {\"v\": %d}" v));
        Buffer.add_string b "}")
      evs;
    Buffer.add_string b "\n]\n";
    Buffer.contents b
end
