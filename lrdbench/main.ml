(* Benchmark entry point: one workload, one seed, one run.

     main.exe --workload surfaces|solve-cold --seed N
              --seconds S --trace 0|1

   Prints human-readable lines, then as its last line one JSON object
   with the keys correct, attempted, failed and metrics.  --trace 0
   gives the end-to-end metrics, --trace 1 the per-layer metrics of the
   traced ledger (Ledger).  Exits 1 when an output check failed, 2 on bad
   arguments. *)

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
       metrics)

(* Workload-specific names of the generic throughput and latency metrics. *)
let aliases = function
  | "surfaces" -> ("cells_per_s", "figure")
  | _ -> ("solves_per_s", "solve")

let end_to_end workload (o : Workloads.outcome) =
  let floors = Workloads.floor_latencies o in
  let wall = Util.sum floors in
  let tail, pct = Util.tail floors in
  let per_s, item = aliases workload in
  Printf.printf
    "%d passes; each of %d %s latencies is its fastest repetition\n\
     wall_s = sum of those; %s = items_per_s = %d per pass / wall_s\n\
     latency_tail_ms = p%.2f of %d %s latencies\n"
    (List.length (snd (List.hd o.Workloads.items)))
    (List.length floors) item per_s o.Workloads.per_pass pct
    (List.length floors) item;
  [
    ("setup_s", Util.median o.Workloads.setups, "s");
    ("wall_s", wall, "s");
    ("items_per_s", float_of_int o.Workloads.per_pass /. wall, "1/s");
    ("latency_p50_ms", 1e3 *. Util.median floors, "ms");
    ("latency_tail_ms", 1e3 *. tail, "ms");
    ("top_heap_mb", o.Workloads.top_heap_mb, "MB");
  ]

let () =
  let workload = ref "" and seed = ref 20260705L in
  let seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME " ^ String.concat "|" Workloads.names );
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let bad msg =
    prerr_endline msg;
    Arg.usage spec usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad a)) usage with
  | Arg.Bad msg -> bad msg
  | Arg.Help msg ->
      print_string msg;
      exit 0
  | Failure msg -> bad msg);
  if not (List.mem !workload Workloads.names) then
    bad ("unknown workload " ^ !workload);
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  if not (!seconds > 0.0) then bad "--seconds must be positive";
  let attempted, failed, notes, metrics =
    if !trace = 0 then
      let o = Workloads.run !workload ~seed:!seed ~seconds:!seconds in
      (o.Workloads.attempted, o.Workloads.failed, o.Workloads.notes, end_to_end !workload o)
    else Ledger.run !workload ~seed:!seed
  in
  List.iter print_endline notes;
  List.iter
    (fun (name, value, unit) -> Printf.printf "%s = %.6g %s\n" name value unit)
    metrics;
  List.iter
    (fun (name, value, _) ->
      if not (Float.is_finite value) then (
        Printf.eprintf "metric %s is not finite\n" name;
        exit 1))
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed (json_metrics metrics);
  exit (if failed = 0 then 0 else 1)
