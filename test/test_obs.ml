(* Tests for the telemetry layer (lib/obs).

   The suite shares one process-global registry, so every test uses its
   own instrument names and sets the enable flag explicitly at entry.
   The zero-allocation test is the acceptance invariant of the whole
   design: metrics compiled into the hot paths must cost one branch and
   no allocation while disabled. *)

module Obs = Lrd_obs.Obs
module Json = Lrd_obs.Json
module Manifest = Lrd_obs.Manifest
module Diff = Lrd_obs.Diff
module Report = Lrd_obs.Report
module Resource = Lrd_obs.Resource
module Export = Lrd_obs.Export
module Pool = Lrd_parallel.Pool

let reset_disabled () =
  Obs.set_enabled false;
  Obs.reset ();
  Obs.Trace.set_enabled false;
  Obs.Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Disabled path: one branch, zero minor-heap words. *)

let test_disabled_path_does_not_allocate () =
  reset_disabled ();
  let c = Obs.Counter.make "test_obs/disabled_counter" in
  let g = Obs.Gauge.make "test_obs/disabled_gauge" in
  let h = Obs.Histogram.make "test_obs/disabled_histogram" in
  let tr = Obs.Trajectory.make "test_obs/disabled_trajectory" in
  let sp = Obs.Span.make "test_obs/disabled_span" in
  let ac = Resource.Alloc.make "test_obs/disabled_alloc" in
  (* Warm up so instrument lookup / DLS cell creation is out of the
     measured region (they only happen when enabled anyway, but be
     safe).  [ignore_unit] is bound once, outside the loop, so the
     with_span callee is not a fresh closure per iteration. *)
  let ignore_unit () = () in
  let exercise () =
    for i = 0 to 63 do
      Obs.Counter.incr c;
      Obs.Counter.add c i;
      (* Guarded idiom for float arguments: without flambda a
         cross-module float argument boxes at the call site, so
         allocation-sensitive callers branch before passing it.  This
         is exactly how solver/pool call sites are written. *)
      if Obs.enabled () then Obs.Gauge.set g 1.5;
      if Obs.enabled () then Obs.Histogram.observe h 1e-3;
      if Obs.enabled () then Obs.Trajectory.record tr 0.25;
      let t0 = Obs.Span.start () in
      Obs.Span.stop sp t0;
      (* GC telemetry, same contract: sampling and alloc attribution
         are one branch each while disabled. *)
      Resource.sample ();
      let w0 = Resource.Alloc.start () in
      Resource.Alloc.stop ac w0;
      (* Trace journal, same contract: argless calls are free because
         the [?arg] default is an immediate sentinel; callers that do
         pass [~arg] guard on [Trace.enabled] so the [Some arg] option
         is never built when tracing is off. *)
      Obs.Trace.begin_ "test_obs/disabled_trace";
      Obs.Trace.end_ "test_obs/disabled_trace";
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~arg:i "test_obs/disabled_trace_i";
      Obs.Trace.with_span "test_obs/disabled_trace_ws" ignore_unit
    done
  in
  exercise ();
  let w0 = Gc.minor_words () in
  exercise ();
  let allocated = Gc.minor_words () -. w0 in
  match Sys.backend_type with
  | Sys.Native ->
      if allocated > 0.0 then
        Alcotest.failf "disabled telemetry allocated %.0f minor words"
          allocated
  | Sys.Bytecode | Sys.Other _ -> ()

(* ------------------------------------------------------------------ *)
(* Counters: totals, per-domain isolation, reset. *)

let test_counter_totals () =
  reset_disabled ();
  let c = Obs.Counter.make "test_obs/counter_totals" in
  Obs.Counter.incr c;
  Alcotest.(check int) "disabled incr ignored" 0 (Obs.Counter.value c);
  Obs.set_enabled true;
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "enabled total" 42 (Obs.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.Counter.add: negative increment") (fun () ->
      Obs.Counter.add c (-1));
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c);
  Obs.set_enabled false

let test_counter_kind_clash () =
  reset_disabled ();
  let _ = Obs.Counter.make "test_obs/kind_clash" in
  Alcotest.(check bool) "same kind returns same instrument" true
    (Obs.Counter.make "test_obs/kind_clash"
     == Obs.Counter.make "test_obs/kind_clash");
  match Obs.Gauge.make "test_obs/kind_clash" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash not rejected"

let test_counter_per_domain_under_pool () =
  reset_disabled ();
  Obs.set_enabled true;
  let c = Obs.Counter.make "test_obs/per_domain" in
  let n = 64 in
  Pool.with_pool ~workers:2 (fun pool ->
      ignore
        (Pool.map pool
           (fun i ->
             Obs.Counter.incr c;
             i)
           (Array.init n Fun.id)));
  Alcotest.(check int) "total across domains" n (Obs.Counter.value c);
  let per = Obs.Counter.per_domain c in
  Alcotest.(check bool) "at least one domain cell" true (List.length per >= 1);
  let sum = List.fold_left (fun acc (_, k) -> acc + k) 0 per in
  Alcotest.(check int) "per-domain cells sum to total" n sum;
  List.iter
    (fun (_, k) ->
      Alcotest.(check bool) "each cell nonnegative" true (k >= 0))
    per;
  let ids = List.map fst per in
  Alcotest.(check bool) "domain ids strictly sorted" true
    (List.sort_uniq compare ids = ids);
  Obs.set_enabled false

(* ------------------------------------------------------------------ *)
(* Histogram bucket geometry. *)

let test_histogram_bucket_boundaries () =
  let open Obs.Histogram in
  (* Exactness at power-of-two boundaries: 2^e opens the bucket whose
     lower bound is 2^e, and the value just below lands one lower. *)
  for e = min_exponent to max_exponent do
    let v = Float.ldexp 1.0 e in
    let i = bucket_index v in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "lower bound of bucket for 2^%d" e)
      v (bucket_lower i);
    if e > min_exponent then
      Alcotest.(check int)
        (Printf.sprintf "pred of 2^%d lands one bucket lower" e)
        (i - 1)
        (bucket_index (Float.pred v))
  done;
  (* Underflow bucket: zero, negatives, nan and tiny values. *)
  List.iter
    (fun v -> Alcotest.(check int) "underflow bucket" 0 (bucket_index v))
    [ 0.0; -1.0; Float.nan; Float.ldexp 1.0 (min_exponent - 1) ];
  (* Clamp: anything at or above 2^(max_exponent+1), including
     infinity, stays in the top bucket. *)
  let top = bucket_count - 1 in
  List.iter
    (fun v -> Alcotest.(check int) "top bucket clamp" top (bucket_index v))
    [ Float.ldexp 1.0 (max_exponent + 1); Float.max_float; Float.infinity ];
  Alcotest.(check (float 0.0))
    "underflow lower bound" Float.neg_infinity (bucket_lower 0)

let test_histogram_observations () =
  reset_disabled ();
  Obs.set_enabled true;
  let h = Obs.Histogram.make "test_obs/hist_obs" in
  List.iter
    (Obs.Histogram.observe h)
    [ 1.0; 1.5; 2.0; 0.0; Float.ldexp 1.0 40 ];
  Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
  (match Obs.find (Obs.snapshot ()) "test_obs/hist_obs" with
  | Some (Obs.Histogram d) ->
      Alcotest.(check int) "snapshot count" 5 d.Obs.count;
      Alcotest.(check (float 1e-9)) "min" 0.0 d.Obs.min;
      Alcotest.(check (float 1e-9)) "max" (Float.ldexp 1.0 40) d.Obs.max;
      Alcotest.(check (float 1e-9))
        "sum" (4.5 +. Float.ldexp 1.0 40) d.Obs.sum;
      (* 1.0 and 1.5 share the [1,2) bucket; 2.0 opens [2,4); 0.0 is in
         the underflow bucket; 2^40 clamps into the top bucket. *)
      let expect =
        [
          (Float.neg_infinity, 1);
          (1.0, 2);
          (2.0, 1);
          (Float.ldexp 1.0 Obs.Histogram.max_exponent, 1);
        ]
      in
      Alcotest.(check int)
        "nonzero buckets" (List.length expect)
        (List.length d.Obs.buckets);
      List.iter2
        (fun (lo, n) (lo', n') ->
          Alcotest.(check (float 0.0)) "bucket bound" lo lo';
          Alcotest.(check int) "bucket count" n n')
        expect d.Obs.buckets;
      (* Quantile: conservative bucket lower bound. *)
      Alcotest.(check (float 0.0))
        "median bucket" 1.0
        (Obs.histogram_quantile d ~q:0.5)
  | _ -> Alcotest.fail "histogram missing from snapshot");
  Obs.set_enabled false

(* ------------------------------------------------------------------ *)
(* Trajectory ring. *)

let test_trajectory_ring () =
  reset_disabled ();
  Obs.set_enabled true;
  let t = Obs.Trajectory.make ~capacity:4 "test_obs/traj" in
  for i = 1 to 6 do
    Obs.Trajectory.record t (float_of_int i)
  done;
  (match Obs.find (Obs.snapshot ()) "test_obs/traj" with
  | Some (Obs.Trajectory [ (_, ring) ]) ->
      Alcotest.(check (array (float 0.0)))
        "last 4 values oldest first" [| 3.0; 4.0; 5.0; 6.0 |] ring
  | _ -> Alcotest.fail "trajectory missing or multi-domain");
  Obs.set_enabled false

(* ------------------------------------------------------------------ *)
(* Span timing. *)

let test_span_records_duration () =
  reset_disabled ();
  Obs.set_enabled true;
  let sp = Obs.Span.make "test_obs/span" in
  let t0 = Obs.Span.start () in
  Alcotest.(check bool) "enabled start is a real time" true (t0 > 0.0);
  Obs.Span.stop sp t0;
  Obs.Span.stop sp (Obs.Span.start ());
  (match Obs.find (Obs.snapshot ()) "test_obs/span" with
  | Some (Obs.Histogram d) ->
      Alcotest.(check int) "two durations recorded" 2 d.Obs.count;
      Alcotest.(check bool) "durations nonnegative" true (d.Obs.min >= 0.0)
  | _ -> Alcotest.fail "span histogram missing");
  (* A start taken while disabled must be ignored by stop. *)
  Obs.set_enabled false;
  let t0 = Obs.Span.start () in
  Alcotest.(check (float 0.0)) "disabled start sentinel" Float.neg_infinity t0;
  Obs.set_enabled true;
  Obs.Span.stop sp t0;
  (match Obs.find (Obs.snapshot ()) "test_obs/span" with
  | Some (Obs.Histogram d) ->
      Alcotest.(check int) "sentinel start not recorded" 2 d.Obs.count
  | _ -> Alcotest.fail "span histogram missing");
  Obs.set_enabled false

(* ------------------------------------------------------------------ *)
(* Snapshot and JSON export. *)

let test_snapshot_sorted_and_complete () =
  reset_disabled ();
  (* Registered-but-never-recorded instruments must still appear: the
     sequential fig4 snapshot relies on pool/tasks_stolen showing up as
     zero rather than vanishing. *)
  let _ = Obs.Counter.make "test_obs/zz_never_recorded" in
  let snap = Obs.snapshot () in
  (match Obs.find snap "test_obs/zz_never_recorded" with
  | Some (Obs.Counter { total; per_domain }) ->
      Alcotest.(check int) "unrecorded counter is zero" 0 total;
      Alcotest.(check int) "no domain cells" 0 (List.length per_domain)
  | _ -> Alcotest.fail "unrecorded instrument missing from snapshot");
  let names = List.map fst snap in
  Alcotest.(check bool) "names sorted and unique" true
    (List.sort_uniq String.compare names = names)

let test_json_deterministic () =
  reset_disabled ();
  Obs.set_enabled true;
  let c = Obs.Counter.make "test_obs/json_counter" in
  let h = Obs.Histogram.make "test_obs/json_hist" in
  let g = Obs.Gauge.make "test_obs/json_gauge" in
  let t = Obs.Trajectory.make "test_obs/json_traj" in
  Obs.Counter.add c 7;
  Obs.Histogram.observe h 0.125;
  Obs.Histogram.observe h Float.infinity;
  Obs.Gauge.set g 0.75;
  Obs.Trajectory.record t 1e-9;
  Obs.set_enabled false;
  let s1 = Obs.to_json (Obs.snapshot ()) in
  let s2 = Obs.to_json (Obs.snapshot ()) in
  Alcotest.(check string) "equal snapshots render byte-identically" s1 s2;
  let contains sub =
    let nl = String.length s1 and sl = String.length sub in
    let rec at i = i + sl <= nl && (String.sub s1 i sl = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "wrapper object" true
    (String.length s1 > 2 && s1.[0] = '{');
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" sub) true
        (contains sub))
    [
      "\"metrics\"";
      "\"test_obs/json_counter\"";
      "\"total\": 7";
      "\"test_obs/json_gauge\"";
      "0.75";
      "\"test_obs/json_hist\"";
      "\"test_obs/json_traj\"";
    ];
  (* Non-finite floats must not leak into the JSON (rendered null). *)
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "no %s token" bad) false
        (contains bad))
    [ "inf"; "nan"; "neg_infinity" ];
  (* The whole string stays structurally balanced. *)
  let depth = ref 0 and min_depth = ref 0 in
  String.iter
    (fun ch ->
      (match ch with
      | '{' | '[' -> incr depth
      | '}' | ']' -> decr depth
      | _ -> ());
      if !depth < !min_depth then min_depth := !depth)
    s1;
  Alcotest.(check int) "brackets balanced" 0 !depth;
  Alcotest.(check int) "never negative depth" 0 !min_depth

let test_text_renders () =
  reset_disabled ();
  Obs.set_enabled true;
  let c = Obs.Counter.make "test_obs/text_counter" in
  Obs.Counter.incr c;
  Obs.set_enabled false;
  let s = Format.asprintf "%a" Obs.pp_text (Obs.snapshot ()) in
  Alcotest.(check bool) "text mentions the counter" true
    (let sub = "test_obs/text_counter" in
     let nl = String.length s and sl = String.length sub in
     let rec at i = i + sl <= nl && (String.sub s i sl = sub || at (i + 1)) in
     at 0)

(* ------------------------------------------------------------------ *)
(* Trace journal: ring eviction, merge determinism, chrome export. *)

let test_trace_ring_eviction () =
  reset_disabled ();
  let cap0 = Obs.Trace.capacity () in
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_capacity cap0)
    (fun () ->
      Obs.Trace.set_capacity 8;
      Alcotest.(check int) "capacity took" 8 (Obs.Trace.capacity ());
      Obs.Trace.set_enabled true;
      for i = 0 to 19 do
        Obs.Trace.instant ~arg:i "test_obs/evict"
      done;
      Obs.Trace.set_enabled false;
      let evs = Obs.Trace.events () in
      Alcotest.(check int) "ring keeps capacity events" 8 (List.length evs);
      Alcotest.(check int) "eviction counted" 12 (Obs.Trace.dropped ());
      (* The survivors are the newest records, oldest first, with their
         original sequence numbers and payloads intact. *)
      List.iteri
        (fun k (e : Obs.Trace.event) ->
          Alcotest.(check int) "surviving seq" (12 + k) e.Obs.Trace.seq;
          Alcotest.(check (option int))
            "surviving payload" (Some (12 + k)) e.Obs.Trace.arg;
          Alcotest.(check bool) "instant phase" true
            (e.Obs.Trace.phase = Obs.Trace.Instant))
        evs;
      (* Timestamps never decrease within one domain's ring. *)
      let rec mono = function
        | (a : Obs.Trace.event) :: (b :: _ as tl) ->
            a.Obs.Trace.ts <= b.Obs.Trace.ts && mono tl
        | _ -> true
      in
      Alcotest.(check bool) "timestamps monotone" true (mono evs);
      Obs.Trace.reset ();
      Alcotest.(check int) "reset clears events" 0
        (List.length (Obs.Trace.events ()));
      Alcotest.(check int) "reset clears drops" 0 (Obs.Trace.dropped ());
      Alcotest.check_raises "capacity < 1 rejected"
        (Invalid_argument "Obs.Trace.set_capacity: capacity < 1") (fun () ->
          Obs.Trace.set_capacity 0))

let test_trace_merge_determinism () =
  reset_disabled ();
  Obs.Trace.set_enabled true;
  let n = 32 in
  Pool.with_pool ~workers:2 (fun pool ->
      ignore
        (Pool.map pool
           (fun i -> Obs.Trace.with_span ~arg:i "test_obs/task" (fun () -> i))
           (Array.init n Fun.id)));
  Obs.Trace.set_enabled false;
  let e1 = Obs.Trace.events () in
  let e2 = Obs.Trace.events () in
  Alcotest.(check bool) "two exports are identical" true (e1 = e2);
  (* Each task contributes a balanced B/E pair (the pool adds its own
     pool/task spans on top). *)
  let count phase =
    List.length
      (List.filter
         (fun (e : Obs.Trace.event) ->
           e.Obs.Trace.name = "test_obs/task" && e.Obs.Trace.phase = phase)
         e1)
  in
  Alcotest.(check int) "every begin recorded" n (count Obs.Trace.Begin);
  Alcotest.(check int) "begins balanced by ends" n (count Obs.Trace.End);
  (* The merged stream is sorted by (ts, domain, seq)... *)
  let key (e : Obs.Trace.event) =
    (e.Obs.Trace.ts, e.Obs.Trace.domain, e.Obs.Trace.seq)
  in
  let rec sorted = function
    | a :: (b :: _ as tl) -> compare (key a) (key b) <= 0 && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "merge sorted by (ts, domain, seq)" true (sorted e1);
  (* ...and within each domain the sequence numbers stay strictly
     increasing in timestamp order, so B/E nesting is reconstructible
     per track even after the cross-domain merge. *)
  let domains =
    List.sort_uniq compare
      (List.map (fun (e : Obs.Trace.event) -> e.Obs.Trace.domain) e1)
  in
  Alcotest.(check bool) "at least one domain track" true
    (List.length domains >= 1);
  List.iter
    (fun d ->
      let seqs =
        List.filter_map
          (fun (e : Obs.Trace.event) ->
            if e.Obs.Trace.domain = d then Some e.Obs.Trace.seq else None)
          e1
      in
      let rec strictly_incr = function
        | a :: (b :: _ as tl) -> a < b && strictly_incr tl
        | _ -> true
      in
      Alcotest.(check bool) "per-domain seq strictly increasing" true
        (strictly_incr seqs))
    domains

let test_trace_chrome_json () =
  reset_disabled ();
  Obs.Trace.set_enabled true;
  Obs.Trace.begin_ ~arg:128 "test_obs/chrome";
  Obs.Trace.instant "test_obs/chrome_i";
  Obs.Trace.end_ "test_obs/chrome";
  Obs.Trace.set_enabled false;
  let s = Obs.Trace.to_chrome_json () in
  match Json.parse s with
  | Error e -> Alcotest.failf "chrome JSON does not parse: %s" e
  | Ok (Json.Obj _ | Json.Num _ | Json.Str _ | Json.Bool _ | Json.Null) ->
      Alcotest.fail "chrome JSON is not an array"
  | Ok (Json.List items) ->
      (* process_name + one thread_name per live track + 3 events. *)
      Alcotest.(check int) "metadata plus events" 5 (List.length items);
      List.iter
        (fun it ->
          List.iter
            (fun k ->
              if Json.member k it = None then
                Alcotest.failf "event missing required key %S" k)
            [ "name"; "ph"; "ts"; "pid"; "tid" ])
        items;
      let phases_of name =
        List.filter_map
          (fun it ->
            match (Json.member "name" it, Json.member "ph" it) with
            | Some (Json.Str n), Some (Json.Str p) when n = name -> Some p
            | _ -> None)
          items
      in
      Alcotest.(check (list string))
        "metadata events present" [ "M" ]
        (List.sort_uniq compare
           (phases_of "process_name" @ phases_of "thread_name"));
      Alcotest.(check (list string))
        "begin/end round-trip in order" [ "B"; "E" ]
        (phases_of "test_obs/chrome");
      Alcotest.(check (list string))
        "instant phase" [ "i" ]
        (phases_of "test_obs/chrome_i");
      (* The integer payload lands under args.v on the begin event. *)
      let begin_ev =
        List.find
          (fun it ->
            Json.member "name" it = Some (Json.Str "test_obs/chrome")
            && Json.member "ph" it = Some (Json.Str "B"))
          items
      in
      (match Option.bind (Json.member "args" begin_ev) (Json.member "v") with
      | Some (Json.Num v) -> Alcotest.(check (float 0.0)) "payload" 128.0 v
      | _ -> Alcotest.fail "begin event lost its args payload");
      (* Timestamps are microseconds: nonnegative finite numbers. *)
      List.iter
        (fun it ->
          match Json.member "ts" it with
          | Some (Json.Num t) ->
              Alcotest.(check bool) "ts finite and nonnegative" true
                (Float.is_finite t && t >= 0.0)
          | _ -> Alcotest.fail "ts is not a number")
        items

(* ------------------------------------------------------------------ *)
(* JSON tree: parse/print round-trip and the non-finite policy. *)

let test_json_roundtrip () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "%S does not parse: %s" s e
      | Ok v ->
          (* Both printer forms must parse back to the same tree, and the
             compact form must be a fixed point of print-then-parse. *)
          let compact = Json.to_string v in
          Alcotest.(check bool)
            (Printf.sprintf "compact round-trip of %S" s)
            true
            (Json.parse_exn compact = v);
          Alcotest.(check string)
            (Printf.sprintf "compact printing is a fixed point for %S" s)
            compact
            (Json.to_string (Json.parse_exn compact));
          Alcotest.(check bool)
            (Printf.sprintf "pretty round-trip of %S" s)
            true
            (Json.parse_exn (Json.to_string ~pretty:true v) = v))
    [
      "null";
      "true";
      "[]";
      "{}";
      "[1,-2,2.5,1e+100]";
      "{\"a\":[{\"b\":\"c\"}],\"d\":\"\"}";
      "\"quote \\\" backslash \\\\ control \\u0001 text\"";
      "9007199254740993";
    ];
  (* Lenient non-finite literals parse (historical bench output printed
     NaN timings), but the printer never emits them. *)
  (match Json.parse_exn "[NaN, Infinity, -inf, nan, -Infinity]" with
  | Json.List [ a; b; c; d; e ] ->
      let num = function Json.Num f -> f | _ -> Alcotest.fail "not a Num" in
      Alcotest.(check bool) "NaN parses" true (Float.is_nan (num a));
      Alcotest.(check (float 0.0)) "Infinity" Float.infinity (num b);
      Alcotest.(check (float 0.0)) "-inf" Float.neg_infinity (num c);
      Alcotest.(check bool) "nan" true (Float.is_nan (num d));
      Alcotest.(check (float 0.0)) "-Infinity" Float.neg_infinity (num e)
  | _ -> Alcotest.fail "non-finite literal list did not parse");
  Alcotest.(check string)
    "non-finite renders null" "[null, null, null]"
    (Json.to_string
       (Json.List [ Json.Num Float.nan; Json.Num Float.infinity;
                    Json.Num Float.neg_infinity ]));
  (* Escaped surrogate pairs decode to UTF-8. *)
  (match Json.parse_exn "\"\\ud83d\\ude00\"" with
  | Json.Str s -> Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate string did not parse");
  (* An unpaired high surrogate falls back to WTF-8 so parsing stays
     total on any printer output. *)
  (match Json.parse_exn "\"\\ud800x\"" with
  | Json.Str s ->
      Alcotest.(check string) "unpaired surrogate (WTF-8)" "\xed\xa0\x80x" s
  | _ -> Alcotest.fail "unpaired surrogate did not parse");
  (* Errors: trailing garbage and truncation are rejected. *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ "1 x"; "{\"a\":1"; "[1,]"; "\"unterminated"; ""; "{1:2}" ]

(* ------------------------------------------------------------------ *)
(* Manifest: schema stability and round-trip determinism. *)

let manifest_fixture () =
  Manifest.make ~figures:[ "fig4"; "fig7" ]
    ~parameters:
      [ ("seed", Json.Str "424242"); ("jobs", Json.Num 2.0);
        ("cutoff", Json.Str "inf") ]
    ~wall_seconds:1.5 ~tool:"test_obs" ()

let test_manifest_schema_stability () =
  let m = manifest_fixture () in
  (match m with
  | Json.Obj kvs ->
      (* The key list and order ARE the schema; a change here must bump
         Manifest.schema. *)
      Alcotest.(check (list string))
        "fixed key order"
        [
          "schema"; "tool"; "figures"; "parameters"; "ocaml_version";
          "os_type"; "word_size"; "argv"; "git_rev"; "git_dirty";
          "metrics_enabled"; "generated_at_unix"; "wall_seconds"; "metrics";
        ]
        (List.map fst kvs)
  | _ -> Alcotest.fail "manifest is not an object");
  Alcotest.(check (option string))
    "schema tag"
    (Some "lrd-manifest/1")
    (match Json.member "schema" m with
    | Some (Json.Str s) -> Some s
    | _ -> None);
  Alcotest.(check string) "exported schema constant" "lrd-manifest/1"
    Manifest.schema;
  (match Json.member "ocaml_version" m with
  | Some (Json.Str v) -> Alcotest.(check string) "ocaml version" Sys.ocaml_version v
  | _ -> Alcotest.fail "ocaml_version missing")

let test_manifest_roundtrip_deterministic () =
  let m1 = manifest_fixture () in
  (* Pretty output (the on-disk form) parses back to the same tree:
     float timestamps survive because the printer is shortest
     round-trip. *)
  Alcotest.(check bool) "pretty form round-trips" true
    (Json.parse_exn (Json.to_string ~pretty:true m1) = m1);
  (* Two manifests of the same run differ only in the two timestamp
     fields — the same-seed determinism contract the CLI relies on. *)
  let m2 = manifest_fixture () in
  let strip = function
    | Json.Obj kvs ->
        Json.Obj
          (List.filter
             (fun (k, _) -> k <> "generated_at_unix" && k <> "wall_seconds")
             kvs)
    | j -> j
  in
  Alcotest.(check string) "identical modulo timestamps"
    (Json.to_string ~pretty:true (strip m1))
    (Json.to_string ~pretty:true (strip m2));
  (* The timestamp fields sit alone on their own pretty-printed lines,
     so `grep -v` can filter them out of a file diff. *)
  let lines = String.split_on_char '\n' (Json.to_string ~pretty:true m1) in
  List.iter
    (fun key ->
      let hits =
        List.filter
          (fun l ->
            let sub = "\"" ^ key ^ "\"" in
            let nl = String.length l and sl = String.length sub in
            let rec at i = i + sl <= nl && (String.sub l i sl = sub || at (i + 1)) in
            at 0)
          lines
      in
      Alcotest.(check int) (key ^ " on exactly one line") 1 (List.length hits))
    [ "generated_at_unix"; "wall_seconds" ]

(* ------------------------------------------------------------------ *)
(* Diff engine: classification, thresholds, format auto-detection. *)

let bench_json rows =
  Json.List
    (List.map
       (fun (n, v) ->
         Json.Obj [ ("name", Json.Str n); ("ns_per_run", Json.Num v) ])
       rows)

let diff_status report name =
  (List.find (fun (r : Diff.row) -> r.Diff.name = name) report.Diff.rows)
    .Diff.status

let test_diff_classification () =
  let base =
    bench_json
      [ ("flat", 100.); ("creep", 150.); ("blowup", 100.); ("faster", 100.);
        ("gone", 5.) ]
  in
  let current =
    bench_json
      [ ("flat", 100.); ("creep", 180.); ("blowup", 300.); ("faster", 40.);
        ("fresh", 1.) ]
  in
  match Diff.compare_values base current with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok r ->
      Alcotest.(check int) "one regression" 1 r.Diff.regressions;
      Alcotest.(check int) "one missing in current" 1 r.Diff.missing;
      Alcotest.(check int) "one new in current" 1 r.Diff.additions;
      Alcotest.(check bool) "unchanged" true
        (diff_status r "flat" = Diff.Unchanged);
      Alcotest.(check bool) "within threshold is changed" true
        (diff_status r "creep" = Diff.Changed);
      Alcotest.(check bool) ">2x is regressed" true
        (diff_status r "blowup" = Diff.Regressed);
      Alcotest.(check bool) "large decrease is improved" true
        (diff_status r "faster" = Diff.Improved);
      Alcotest.(check bool) "base-only warns" true
        (diff_status r "gone" = Diff.Missing_current);
      Alcotest.(check bool) "current-only is an addition" true
        (diff_status r "fresh" = Diff.Missing_base);
      let rendered = Diff.render r in
      let contains sub =
        let nl = String.length rendered and sl = String.length sub in
        let rec at i =
          i + sl <= nl && (String.sub rendered i sl = sub || at (i + 1))
        in
        at 0
      in
      List.iter
        (fun sub ->
          Alcotest.(check bool) (Printf.sprintf "render mentions %S" sub) true
            (contains sub))
        [ "REGRESSED"; "missing in current"; "missing in base";
          "6 series compared"; "1 new in current"; "1 missing in current" ];
      Alcotest.(check bool) "unchanged rows not rendered" false
        (contains "flat")

let test_diff_thresholds () =
  let base = bench_json [ ("k", 100.) ] in
  let current = bench_json [ ("k", 300.) ] in
  let regressions ?threshold ?min_abs () =
    match Diff.compare_values ?threshold ?min_abs base current with
    | Ok r -> r.Diff.regressions
    | Error e -> Alcotest.failf "diff failed: %s" e
  in
  Alcotest.(check int) "3x beats the default 2x gate" 1 (regressions ());
  Alcotest.(check int) "raising the ratio clears it" 0
    (regressions ~threshold:4.0 ());
  Alcotest.(check int) "min_abs suppresses small absolute deltas" 0
    (regressions ~min_abs:250.0 ());
  Alcotest.(check int) "min_abs below the delta keeps it" 1
    (regressions ~min_abs:200.0 ());
  (* A zero base never regresses (ratio is meaningless). *)
  match
    Diff.compare_values (bench_json [ ("z", 0.) ]) (bench_json [ ("z", 50.) ])
  with
  | Ok r ->
      Alcotest.(check int) "zero base cannot regress" 0 r.Diff.regressions;
      Alcotest.(check bool) "but it does report as changed" true
        (diff_status r "z" = Diff.Changed)
  | Error e -> Alcotest.failf "diff failed: %s" e

let test_diff_format_autodetect () =
  reset_disabled ();
  Obs.set_enabled true;
  let c = Obs.Counter.make "test_obs/diff_counter" in
  Obs.Counter.add c 7;
  Obs.set_enabled false;
  let snap = Json.parse_exn (Obs.to_json (Obs.snapshot ())) in
  (* Metrics snapshot: counters compare by total. *)
  (match Diff.scalars snap with
  | Ok series ->
      Alcotest.(check (option (float 0.0)))
        "counter total extracted" (Some 7.0)
        (List.assoc_opt "test_obs/diff_counter" series)
  | Error e -> Alcotest.failf "snapshot not recognized: %s" e);
  (* Manifest: the embedded snapshot is compared after a schema check. *)
  let manifest =
    Manifest.make ~metrics:snap ~tool:"test_obs" ()
  in
  (match Diff.compare_values manifest snap with
  | Ok r -> Alcotest.(check int) "manifest vs snapshot aligns" 0 r.Diff.regressions
  | Error e -> Alcotest.failf "manifest diff failed: %s" e);
  (* A manifest without metrics yields an empty, valid series. *)
  (match Diff.scalars (Manifest.make ~tool:"test_obs" ()) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "metrics-less manifest should have no series"
  | Error e -> Alcotest.failf "metrics-less manifest rejected: %s" e);
  (* A wrong schema tag is an error, not a silent empty diff. *)
  let bad =
    Json.Obj [ ("schema", Json.Str "lrd-manifest/999"); ("metrics", Json.Null) ]
  in
  (match Diff.scalars bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown manifest schema accepted");
  match Diff.scalars (Json.Str "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unrecognized format accepted"

(* ------------------------------------------------------------------ *)
(* Report: offline trace analytics on hand-built journals with known
   answers. *)

(* One chrome trace event as the Trace exporter writes it; ts in µs. *)
let ev ?arg ~ph ~ts ~tid name =
  Printf.sprintf "{\"name\": %S, \"ph\": %S, \"ts\": %.3f, \"pid\": 0, \
                  \"tid\": %d%s}"
    name ph ts tid
    (match arg with
    | None -> ""
    | Some v -> Printf.sprintf ", \"args\": {\"v\": %d}" v)

let journal events = "[" ^ String.concat ", " events ^ "]"

let report_of_events events =
  match Report.of_chrome_json (Json.parse_exn (journal events)) with
  | Ok r -> r
  | Error e -> Alcotest.failf "report: %s" e

(* Two domains: tid 0 runs three cells back to back (1, 2 and 3 ms,
   cells 0, 1 and 2), tid 1 runs one 10 ms cell (cell 7).  Four pool
   tasks, two per domain.  Every aggregate is checkable by hand. *)
let synthetic_sweep =
  [
    ev ~ph:"M" ~ts:0.0 ~tid:0 "process_name";
    ev ~ph:"B" ~ts:0.0 ~tid:0 ~arg:0 "sweep/cell";
    ev ~ph:"E" ~ts:1000.0 ~tid:0 ~arg:0 "sweep/cell";
    ev ~ph:"B" ~ts:1000.0 ~tid:0 ~arg:1 "sweep/cell";
    ev ~ph:"E" ~ts:3000.0 ~tid:0 ~arg:1 "sweep/cell";
    ev ~ph:"B" ~ts:3000.0 ~tid:0 ~arg:2 "sweep/cell";
    ev ~ph:"E" ~ts:6000.0 ~tid:0 ~arg:2 "sweep/cell";
    ev ~ph:"B" ~ts:0.0 ~tid:1 ~arg:7 "sweep/cell";
    ev ~ph:"E" ~ts:10000.0 ~tid:1 ~arg:7 "sweep/cell";
    ev ~ph:"B" ~ts:0.0 ~tid:0 ~arg:0 "pool/task";
    ev ~ph:"E" ~ts:0.0 ~tid:0 ~arg:0 "pool/task";
    ev ~ph:"B" ~ts:0.0 ~tid:0 ~arg:1 "pool/task";
    ev ~ph:"E" ~ts:0.0 ~tid:0 ~arg:1 "pool/task";
    ev ~ph:"B" ~ts:0.0 ~tid:1 ~arg:2 "pool/task";
    ev ~ph:"E" ~ts:0.0 ~tid:1 ~arg:2 "pool/task";
    ev ~ph:"B" ~ts:0.0 ~tid:1 ~arg:3 "pool/task";
    ev ~ph:"E" ~ts:0.0 ~tid:1 ~arg:3 "pool/task";
  ]

let feq = Alcotest.(check (float 1e-9))

let has_sub ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  lsub = 0 || go 0

let test_report_phase_aggregates () =
  let r = report_of_events synthetic_sweep in
  Alcotest.(check int) "events (metadata dropped)" 16 r.Report.events;
  Alcotest.(check int) "no unmatched halves" 0 r.Report.dropped_unmatched;
  feq "extent" 0.010 r.Report.extent;
  let slice =
    List.find
      (fun p -> p.Report.phase_name = "sweep/cell")
      r.Report.phases
  in
  Alcotest.(check int) "slice count" 4 slice.Report.count;
  feq "slice total" 0.016 slice.Report.total;
  feq "slice p50 (sorted [1;2;3;10]ms)" 0.002 slice.Report.p50;
  feq "slice p95" 0.010 slice.Report.p95;
  feq "slice max" 0.010 slice.Report.max

let test_report_domains_and_pool () =
  let r = report_of_events synthetic_sweep in
  (match r.Report.domains with
  | [ d0; d1 ] ->
      Alcotest.(check int) "tids" 0 d0.Report.domain;
      Alcotest.(check int) "tids" 1 d1.Report.domain;
      (* tid 0: slices cover [0, 6ms] of the 10 ms extent. *)
      feq "d0 busy" 0.006 d0.Report.busy;
      feq "d0 idle" 0.004 d0.Report.idle;
      feq "d0 util" 0.6 d0.Report.utilization;
      feq "d1 busy" 0.010 d1.Report.busy;
      feq "d1 idle" 0.0 d1.Report.idle
  | ds -> Alcotest.failf "expected 2 domains, got %d" (List.length ds));
  Alcotest.(check int) "tasks" 4 r.Report.pool.Report.tasks;
  Alcotest.(check (list int)) "slowest sweep/cell slices first" [ 7; 2; 1; 0 ]
    (List.map (fun c -> c.Report.index) r.Report.cells)

let test_report_unmatched_and_determinism () =
  let events =
    [
      (* An E with no B (ring evicted the open) and a B never closed. *)
      ev ~ph:"E" ~ts:500.0 ~tid:0 "solver/solve";
      ev ~ph:"B" ~ts:600.0 ~tid:0 "solver/solve";
      ev ~ph:"B" ~ts:700.0 ~tid:0 ~arg:3 "sweep/cell";
      ev ~ph:"E" ~ts:900.0 ~tid:0 ~arg:3 "sweep/cell";
    ]
  in
  let r = report_of_events events in
  Alcotest.(check int) "unmatched halves counted" 2
    r.Report.dropped_unmatched;
  let bytes1 = Json.to_string ~pretty:true (Report.to_json r) in
  let r2 = report_of_events events in
  let bytes2 = Json.to_string ~pretty:true (Report.to_json r2) in
  Alcotest.(check string) "report json byte-identical" bytes1 bytes2

let test_report_rejects_non_journal () =
  (match Report.of_chrome_json (Json.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "object accepted as journal");
  match Report.of_file "/nonexistent/journal.json" with
  | Error e ->
      Alcotest.(check bool) "error names the file" true
        (has_sub ~sub:"/nonexistent/journal.json" e)
  | Ok _ -> Alcotest.fail "missing file accepted"

(* ------------------------------------------------------------------ *)
(* Export: the JSONL ticker writes one tick at start and one at stop,
   even when the run is shorter than one interval. *)

let test_ticker_start_stop_series () =
  (match Export.start_ticker ~interval:0.0 ~path:"ticker_unused.jsonl" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero interval accepted");
  (match Export.start_ticker ~interval:1.0 ~path:"/nonexistent/t.jsonl" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unwritable path accepted");
  let path = Filename.temp_file "lrd_ticker" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Export.start_ticker ~interval:3600.0 ~path with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Export.stop_ticker ();
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "start and stop ticks" 2 (List.length lines);
      List.iter
        (fun line ->
          match Json.parse line with
          | Ok v ->
              Alcotest.(check bool) "ts and metrics keys" true
                (Json.member "ts" v <> None && Json.member "metrics" v <> None)
          | Error e -> Alcotest.fail e)
        lines)

(* ------------------------------------------------------------------ *)
(* Resource: GC gauges appear once sampled; Alloc attributes minor
   words. *)

let test_resource_sample_publishes_gauges () =
  reset_disabled ();
  Obs.set_enabled true;
  Resource.sample ();
  Obs.set_enabled false;
  let snap = Obs.snapshot () in
  List.iter
    (fun name ->
      match Obs.find snap name with
      | Some (Obs.Gauge (Some v)) ->
          Alcotest.(check bool)
            (name ^ " nonnegative")
            true (v >= 0.0)
      | _ -> Alcotest.failf "%s not published" name)
    [ "gc/minor_words"; "gc/major_words"; "gc/heap_words"; "gc/compactions" ]

let test_resource_alloc_attribution () =
  reset_disabled ();
  Obs.set_enabled true;
  let a = Resource.Alloc.make "test_obs/alloc_attr" in
  let w0 = Resource.Alloc.start () in
  (* Allocate something measurable: 10k boxed floats. *)
  let arr = Array.init 10_000 (fun i -> float_of_int i +. 0.5) in
  ignore (Sys.opaque_identity arr);
  Resource.Alloc.stop a w0;
  Obs.set_enabled false;
  let words = Resource.Alloc.value a in
  Alcotest.(check bool)
    (Printf.sprintf "attributed %d minor words" words)
    true (words >= 10_000)

let () =
  Alcotest.run "obs"
    [
      ( "disabled-path",
        [
          Alcotest.test_case "zero allocation" `Quick
            test_disabled_path_does_not_allocate;
        ] );
      ( "counter",
        [
          Alcotest.test_case "totals and reset" `Quick test_counter_totals;
          Alcotest.test_case "kind clash" `Quick test_counter_kind_clash;
          Alcotest.test_case "per-domain under pool" `Quick
            test_counter_per_domain_under_pool;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "observations" `Quick test_histogram_observations;
        ] );
      ( "trajectory",
        [ Alcotest.test_case "ring eviction" `Quick test_trajectory_ring ] );
      ( "span",
        [
          Alcotest.test_case "records duration" `Quick
            test_span_records_duration;
        ] );
      ( "export",
        [
          Alcotest.test_case "snapshot sorted and complete" `Quick
            test_snapshot_sorted_and_complete;
          Alcotest.test_case "json deterministic" `Quick
            test_json_deterministic;
          Alcotest.test_case "text renders" `Quick test_text_renders;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring eviction" `Quick test_trace_ring_eviction;
          Alcotest.test_case "merge determinism" `Quick
            test_trace_merge_determinism;
          Alcotest.test_case "chrome json" `Quick test_trace_chrome_json;
        ] );
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip ] );
      ( "manifest",
        [
          Alcotest.test_case "schema stability" `Quick
            test_manifest_schema_stability;
          Alcotest.test_case "round-trip deterministic" `Quick
            test_manifest_roundtrip_deterministic;
        ] );
      ( "report",
        [
          Alcotest.test_case "phase aggregates" `Quick
            test_report_phase_aggregates;
          Alcotest.test_case "domains and pool" `Quick
            test_report_domains_and_pool;
          Alcotest.test_case "unmatched halves and determinism" `Quick
            test_report_unmatched_and_determinism;
          Alcotest.test_case "rejects non-journal" `Quick
            test_report_rejects_non_journal;
        ] );
      ( "ticker",
        [
          Alcotest.test_case "start and stop ticks" `Quick
            test_ticker_start_stop_series;
        ] );
      ( "resource",
        [
          Alcotest.test_case "sample publishes gauges" `Quick
            test_resource_sample_publishes_gauges;
          Alcotest.test_case "alloc attribution" `Quick
            test_resource_alloc_attribution;
        ] );
      ( "diff",
        [
          Alcotest.test_case "classification" `Quick test_diff_classification;
          Alcotest.test_case "thresholds" `Quick test_diff_thresholds;
          Alcotest.test_case "format auto-detection" `Quick
            test_diff_format_autodetect;
        ] );
    ]
