(* lrd: command-line front end.

   Subcommands:
     solve       loss rate of a finite-buffer queue fed by the cutoff
                 fluid model (marginal from a trace file or built-in)
     trace       generate a synthetic trace (video / ethernet / fgn / dar)
     hurst       estimate the Hurst parameter of a trace, four ways
     simulate    trace-driven fluid-queue simulation, optionally shuffled
     experiment  run paper figures / ablations by id *)

open Cmdliner

let read_trace path =
  try Ok (Lrd_trace.Trace_io.load ~path)
  with Failure msg | Sys_error msg -> Error msg

(* The built-in marginals and the mean epoch of their synthetic trace.
   [--marginal] parses through [Arg.enum], so an unknown name is a usage
   error (exit 2). *)
let builtin_marginal ctx = function
  | `Mtv -> Lrd_experiments.Data.mtv_marginal ctx
  | `Bellcore -> Lrd_experiments.Data.bc_marginal ctx

let builtin_mean_epoch ctx = function
  | `Mtv -> Lrd_experiments.Data.mtv_mean_epoch ctx
  | `Bellcore -> Lrd_experiments.Data.bc_mean_epoch ctx

let marginal_conv = Arg.enum [ ("mtv", `Mtv); ("bellcore", `Bellcore) ]

(* ------------------------------------------------------------------ *)
(* Shared arguments *)

let seed_arg =
  let doc = "Seed for all randomness (trace synthesis, shuffling)." in
  Arg.(value & opt int64 20260705L & info [ "seed" ] ~docv:"SEED" ~doc)

let quick_arg =
  let doc = "Use small synthetic traces (fast, less statistics)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* A float converter that rejects values outside a domain, so bad input
   ends in a usage message instead of an exception from the library. *)
let checked_float ~expected valid =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok v when valid v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let utilization_arg =
  let doc = "Server utilization (mean rate / service rate), in (0, 1)." in
  Arg.(
    value
    & opt
        (checked_float ~expected:"a utilization in (0, 1)" (fun u ->
             u > 0.0 && u < 1.0))
        0.8
    & info [ "u"; "utilization" ] ~docv:"U" ~doc)

let buffer_arg =
  let doc = "Normalized buffer size in seconds (buffer = B * service rate)." in
  Arg.(
    value
    & opt
        (checked_float ~expected:"a finite non-negative buffer size"
           (fun b -> b >= 0.0 && Float.is_finite b))
        1.0
    & info [ "b"; "buffer" ] ~docv:"SECONDS" ~doc)

(* A finite [-b] can still overflow at the service rate [c], and the
   solver refuses an infinite buffer: a grid of step inf certifies
   nothing. *)
let with_finite_buffer ~buffer c k =
  if Float.is_finite (buffer *. c) then k ()
  else
    `Error
      (false, Printf.sprintf "buffer %g s at service rate %g is not finite"
                buffer c)

let cutoff_conv =
  checked_float ~expected:"a positive cutoff lag" (fun tc -> tc > 0.0)

let hurst_conv =
  checked_float ~expected:"a Hurst parameter in (0.5, 1)" (fun h ->
      h > 0.5 && h < 1.0)

let epoch_conv =
  checked_float ~expected:"a positive epoch duration" (fun e -> e > 0.0)

(* An estimator refusing a loaded trace (too short, constant) is bad
   input: report it and exit 2, as [lrd metrics diff] does. *)
let reject_trace ~cmd ~path msg =
  Format.eprintf "lrd %s: %s (%s)@." cmd msg path;
  exit 2

let trace_file_arg =
  let doc = "Input trace file (as written by $(b,lrd trace)); its 50-bin \
             histogram becomes the marginal and its mean rate-residence \
             epoch sets theta.  (Not to be confused with $(b,--trace), \
             which enables timeline tracing.)" in
  Arg.(value & opt (some string) None & info [ "trace-file" ] ~docv:"FILE" ~doc)

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing shared by the compute-heavy subcommands.

   [--metrics text|json] turns the Obs layer on for the whole run and
   prints one aggregated snapshot (solver convergence, pool scheduling,
   cache traffic) to stdout afterwards; [--metrics-out FILE] redirects
   the snapshot to a file and implies JSON unless a format was given. *)

let metrics_format_arg =
  let doc =
    "Enable telemetry and print a metrics snapshot after the run; $(docv) \
     is $(b,text) or $(b,json)."
  in
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
    & info [ "metrics" ] ~docv:"FORMAT" ~doc)

let metrics_out_arg =
  let doc =
    "Write the metrics snapshot to $(docv) instead of stdout (implies \
     $(b,--metrics json) unless a format is given)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* [--trace FILE] / [--trace-out FILE] — one shared argument, both
   spellings accepted on every compute-heavy subcommand (input trace
   files are [--trace-file], so the spellings never collide) — turns
   timeline tracing on for the run and exports the merged journal as
   Chrome trace-event JSON.  Tracing and metrics are independent
   switches: when both are given, each output goes to its own
   destination (the trace never lands on stdout). *)
let trace_out_arg =
  let doc =
    "Enable timeline tracing for the run and write the merged event \
     journal to $(docv) as Chrome trace-event JSON (open it in Perfetto \
     or chrome://tracing).  $(b,--trace-out) is an accepted alias.  \
     Independent of $(b,--metrics): giving both writes both, each to \
     its own destination."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "trace"; "trace-out" ] ~docv:"FILE" ~doc)

(* [--metrics-interval SECS] — stream timestamped snapshot lines to a
   JSONL file while the run is in flight (one line per tick, plus one
   at start and one at exit), so long runs produce a time series
   instead of a single exit snapshot.  The ticker file sits next to
   [--metrics-out FILE] as FILE minus extension + ".ticker.jsonl", or
   defaults to lrd-metrics.ticker.jsonl. *)
let metrics_interval_arg =
  let doc =
    "Enable telemetry and append a timestamped metrics snapshot line \
     (JSONL) every $(docv) seconds to a ticker file (next to \
     $(b,--metrics-out), else $(b,lrd-metrics.ticker.jsonl))."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "metrics-interval" ] ~docv:"SECS" ~doc)

let ticker_path ~metrics_out =
  match metrics_out with
  | Some f -> Filename.remove_extension f ^ ".ticker.jsonl"
  | None -> "lrd-metrics.ticker.jsonl"

let with_telemetry ?metrics_interval ?trace_out format out f =
  let wanted = format <> None || out <> None in
  if wanted || metrics_interval <> None then Lrd_obs.Obs.set_enabled true;
  if trace_out <> None then Lrd_obs.Obs.Trace.set_enabled true;
  (match metrics_interval with
  | None -> ()
  | Some interval -> (
      match
        Lrd_obs.Export.start_ticker ~interval
          ~path:(ticker_path ~metrics_out:out)
      with
      | Ok () -> ()
      | Error e ->
          prerr_endline ("lrd: --metrics-interval: " ^ e);
          exit 2));
  let result =
    Fun.protect
      ~finally:(fun () ->
        if metrics_interval <> None then Lrd_obs.Export.stop_ticker ())
      f
  in
  if wanted then begin
    let snap = Lrd_obs.Obs.snapshot () in
    let rendered =
      match format with
      | Some `Text -> Format.asprintf "%a" Lrd_obs.Obs.pp_text snap
      | Some `Json | None -> Lrd_obs.Obs.to_json snap
    in
    match out with
    | None -> print_string rendered
    | Some file ->
        let oc = open_out file in
        output_string oc rendered;
        close_out oc
  end;
  (match trace_out with
  | None -> ()
  | Some file ->
      Lrd_obs.Obs.Trace.set_enabled false;
      let oc = open_out file in
      output_string oc (Lrd_obs.Obs.Trace.to_chrome_json ());
      close_out oc);
  result

(* ------------------------------------------------------------------ *)
(* solve *)

let solve_cmd =
  let hurst_arg =
    let doc = "Hurst parameter in (0.5, 1); alpha = 3 - 2H." in
    Arg.(value & opt hurst_conv 0.83 & info [ "H"; "hurst" ] ~docv:"H" ~doc)
  in
  let cutoff_arg =
    let doc = "Cutoff lag T_c in seconds (correlation is zero beyond); \
               $(b,inf) for the untruncated self-similar model." in
    Arg.(
      value & opt cutoff_conv Float.infinity & info [ "cutoff" ] ~docv:"TC" ~doc)
  in
  let marginal_arg =
    let doc = "Built-in marginal: mtv or bellcore (synthetic trace \
               histograms).  Ignored when --trace-file is given." in
    Arg.(value & opt marginal_conv `Mtv & info [ "marginal" ] ~docv:"NAME" ~doc)
  in
  let epoch_arg =
    let doc = "Mean epoch duration in seconds used to match theta (eq. 25) \
               when no trace is given; defaults to the built-in trace's \
               measured value." in
    Arg.(
      value
      & opt (some epoch_conv) None
      & info [ "epoch" ] ~docv:"SECONDS" ~doc)
  in
  let run quick seed utilization buffer hurst cutoff marginal_name trace epoch
      metrics metrics_out trace_out =
    with_telemetry ?trace_out metrics metrics_out @@ fun () ->
    let ctx = Lrd_experiments.Data.create ~seed ~quick () in
    let model_result =
      match trace with
      | Some path ->
          Result.map
            (fun t -> Lrd_core.Model.fit_from_trace ~hurst ~cutoff t)
            (read_trace path)
      | None ->
          let mean_epoch =
            match epoch with
            | Some e -> e
            | None -> builtin_mean_epoch ctx marginal_name
          in
          let theta =
            Lrd_dist.Interarrival.theta_for_mean_epoch ~mean_epoch
              ~alpha:(Lrd_core.Model.alpha_of_hurst hurst)
              ()
          in
          Ok
            (Lrd_core.Model.of_hurst
               ~marginal:(builtin_marginal ctx marginal_name)
               ~hurst ~theta ~cutoff)
    in
    match model_result with
    | Error msg -> `Error (false, msg)
    | Ok model ->
        Format.printf "model: %a@." Lrd_core.Model.pp model;
        let c =
          Lrd_core.Model.service_rate_for_utilization model ~utilization
        in
        with_finite_buffer ~buffer c @@ fun () ->
        Format.printf "service rate: %.6g, buffer: %.6g (%g s)@." c
          (buffer *. c) buffer;
        let result =
          Lrd_core.Solver.solve_utilization model ~utilization
            ~buffer_seconds:buffer
        in
        Format.printf "%a@." Lrd_core.Solver.pp_result result;
        (if buffer = 0.0 then
           Format.printf "correlation horizon estimate: undefined at B = 0@."
         else
           let horizon =
             Lrd_core.Horizon.estimate_for_model model ~buffer:(buffer *. c)
           in
           if Float.is_finite horizon && horizon > 0.0 then
             Format.printf "correlation horizon estimate (eq. 26): %.4g s@."
               horizon
           else
             Format.printf
               "correlation horizon estimate: unavailable (infinite epoch \
                variance at this cutoff)@.");
        `Ok ()
  in
  let doc = "solve the finite-buffer fluid queue for the loss rate" in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Term.(
      ret
        (const run $ quick_arg $ seed_arg $ utilization_arg $ buffer_arg
       $ hurst_arg $ cutoff_arg $ marginal_arg $ trace_file_arg $ epoch_arg
       $ metrics_format_arg $ metrics_out_arg
       $ trace_out_arg))

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let kind_arg =
    let doc = "Kind: video (MTV-like, scene based), ethernet \
               (Bellcore-like on/off aggregate), fgn (video marginal via \
               fractional Gaussian noise), farima (FARIMA(0, 0.3, 0) \
               rates), mginf (M/G/inf session traffic), dar (DAR(1) with \
               the video marginal)." in
    Arg.(
      value
      & opt
          (enum
             [
               ("video", `Video);
               ("ethernet", `Ethernet);
               ("fgn", `Fgn);
               ("farima", `Farima);
               ("mginf", `Mginf);
               ("dar", `Dar);
             ])
          `Video
      & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let slots_arg =
    let doc = "Number of trace samples (0 = the paper-scale default)." in
    Arg.(value & opt int 0 & info [ "n"; "slots" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc = "Output file." in
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run seed kind slots out =
    let rng = Lrd_rng.Rng.create ~seed in
    let trace =
      match kind with
      | `Video ->
          if slots > 0 then Lrd_trace.Video.generate_short rng ~n:slots
          else Lrd_trace.Video.generate rng
      | `Ethernet ->
          if slots > 0 then Lrd_trace.Ethernet.generate_short rng ~n:slots
          else Lrd_trace.Ethernet.generate rng
      | `Fgn ->
          let params =
            if slots > 0 then { Lrd_trace.Video.mtv_like with frames = slots }
            else Lrd_trace.Video.mtv_like
          in
          Lrd_trace.Video.generate_fgn ~params rng
      | `Farima ->
          (* Zero-mean FARIMA shifted to a positive rate floor of 10. *)
          let n = if slots > 0 then slots else 65_536 in
          let xs = Lrd_trace.Farima.generate rng ~d:0.3 ~n in
          Lrd_trace.Trace.create
            ~rates:(Array.map (fun v -> Float.max 0.0 (10.0 +. v)) xs)
            ~slot:0.01
      | `Mginf ->
          Lrd_trace.Mginf.generate rng
            ~slots:(if slots > 0 then slots else 65_536)
            ~slot:0.01
      | `Dar ->
          let marginal =
            Lrd_trace.Histogram.marginal_of_trace ~bins:50
              (Lrd_trace.Video.generate_short rng ~n:16_384)
          in
          let dar = Lrd_baselines.Dar.create ~marginal ~rho:0.6 in
          Lrd_baselines.Dar.generate dar rng
            ~slots:(if slots > 0 then slots else 107_892)
            ~slot:(1.0 /. 30.0)
    in
    Lrd_trace.Trace_io.save trace ~path:out;
    Format.printf
      "wrote %d samples (slot %.4g s, mean %.4g, std %.4g, peak %.4g) to %s@."
      (Lrd_trace.Trace.length trace)
      trace.Lrd_trace.Trace.slot
      (Lrd_trace.Trace.mean trace)
      (Lrd_trace.Trace.std trace)
      (Lrd_trace.Trace.peak trace)
      out
  in
  (* `lrd trace` is a group whose default term is the generator, so the
     historical flat spelling (lrd trace --kind video -o FILE) keeps
     working next to the analysis subcommands. *)
  let generate_term =
    Term.(const run $ seed_arg $ kind_arg $ slots_arg $ out_arg)
  in
  let report_cmd =
    let file_arg =
      let doc = "Chrome trace-event journal to analyze (a --trace output)." in
      Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
    in
    let json_arg =
      let doc =
        "Print the full report as deterministic JSON (schema \
         $(b,lrd-trace-report/1)) instead of the text summary — \
         byte-identical across reruns of the same journal."
      in
      Arg.(value & flag & info [ "json" ] ~doc)
    in
    let top_arg =
      let doc = "Number of slowest cells to list." in
      Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)
    in
    let compare_arg =
      let doc =
        "A/B mode: also load the baseline journal $(docv) and print \
         per-phase totals side by side with ratios."
      in
      Arg.(
        value
        & opt (some string) None
        & info [ "compare" ] ~docv:"BASELINE" ~doc)
    in
    let run file json top compare =
      match Lrd_obs.Report.of_file file with
      | Error e -> `Error (false, e)
      | Ok current -> (
          match compare with
          | Some base_file -> (
              match Lrd_obs.Report.of_file base_file with
              | Error e -> `Error (false, e)
              | Ok base ->
                  if json then
                    print_endline
                      (Lrd_obs.Json.to_string ~pretty:true
                         (Lrd_obs.Json.Obj
                            [
                              ("schema", Lrd_obs.Json.Str Lrd_obs.Report.schema);
                              ("base", Lrd_obs.Report.to_json ~top base);
                              ( "current",
                                Lrd_obs.Report.to_json ~top current );
                            ]))
                  else
                    print_string
                      (Lrd_obs.Report.render_compare ~base ~current);
                  `Ok ())
          | None ->
              if json then
                print_endline
                  (Lrd_obs.Json.to_string ~pretty:true
                     (Lrd_obs.Report.to_json ~top current))
              else print_string (Lrd_obs.Report.render ~top current);
              `Ok ())
    in
    let doc =
      "analyze a timeline trace: per-phase aggregates, per-domain \
       utilization, pool task count, slowest cells and the sweep \
       critical path"
    in
    Cmd.v (Cmd.info "report" ~doc)
      Term.(ret (const run $ file_arg $ json_arg $ top_arg $ compare_arg))
  in
  let doc = "generate synthetic traffic traces and analyze run timelines" in
  Cmd.group ~default:generate_term (Cmd.info "trace" ~doc) [ report_cmd ]

(* ------------------------------------------------------------------ *)
(* hurst *)

let hurst_cmd =
  let file_arg =
    let doc = "Trace file to analyze." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run path =
    match read_trace path with
    | Error msg -> `Error (false, msg)
    | Ok trace ->
        let rates = trace.Lrd_trace.Trace.rates in
        let fits, whittle, diagram =
          try
            ( [
                ( "aggregated variance",
                  Lrd_stats.Hurst.aggregated_variance rates );
                ("rescaled range (R/S)", Lrd_stats.Hurst.rescaled_range rates);
                ("GPH log-periodogram", Lrd_stats.Hurst.gph rates);
                ("Abry-Veitch wavelet", Lrd_stats.Hurst.abry_veitch rates);
              ],
              Lrd_stats.Whittle.local_whittle rates,
              Lrd_stats.Hurst.logscale_diagram rates )
          with Invalid_argument msg -> reject_trace ~cmd:"hurst" ~path msg
        in
        List.iter
          (fun (name, (fit : Lrd_stats.Hurst.fit)) ->
            Format.printf "%-24s H = %.3f (slope %.3f over %d points)@." name
              fit.Lrd_stats.Hurst.hurst fit.Lrd_stats.Hurst.slope
              (Array.length fit.Lrd_stats.Hurst.xs))
          fits;
        Format.printf "%-24s H = %.3f (d = %.3f over %d frequencies)@."
          "local Whittle" whittle.Lrd_stats.Whittle.hurst
          whittle.Lrd_stats.Whittle.memory
          whittle.Lrd_stats.Whittle.frequencies;
        Format.printf "mean rate-residence epoch (50 bins): %.4g s@."
          (Lrd_trace.Epochs.mean_epoch_duration ~bins:50 trace);
        Format.printf
          "@.logscale diagram (log2 energy per octave, 95%% bands):@.";
        Array.iter
          (fun p ->
            Format.printf "  octave %2d: %8.3f  [%7.3f, %7.3f]  (%d coeffs)@."
              p.Lrd_stats.Hurst.octave p.Lrd_stats.Hurst.log2_energy
              p.Lrd_stats.Hurst.ci_low p.Lrd_stats.Hurst.ci_high
              p.Lrd_stats.Hurst.coefficients)
          diagram;
        `Ok ()
  in
  let doc = "estimate the Hurst parameter of a trace, four ways" in
  Cmd.v (Cmd.info "hurst" ~doc) Term.(ret (const run $ file_arg))

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate_cmd =
  let file_arg =
    let doc = "Trace file to feed the queue." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let block_arg =
    let doc = "Externally shuffle with this block size (samples) first." in
    Arg.(value & opt (some int) None & info [ "block" ] ~docv:"SAMPLES" ~doc)
  in
  let run seed utilization buffer block path =
    match read_trace path with
    | Error msg -> `Error (false, msg)
    | Ok trace ->
        let trace =
          match block with
          | None -> trace
          | Some b ->
              Lrd_trace.Shuffle.external_shuffle
                (Lrd_rng.Rng.create ~seed)
                trace ~block:b
        in
        let c =
          Lrd_trace.Trace.service_rate_for_utilization trace ~utilization
        in
        let sim =
          Lrd_fluidsim.Queue_sim.make ~service_rate:c ~buffer:(buffer *. c) ()
        in
        let stats = Lrd_fluidsim.Queue_sim.run_trace sim trace in
        Format.printf
          "loss rate %.6g (lost %.6g of %.6g work; achieved utilization \
           %.4f; max occupancy %.4g of %.4g)@."
          (Lrd_fluidsim.Queue_sim.loss_rate stats)
          stats.Lrd_fluidsim.Queue_sim.lost
          stats.Lrd_fluidsim.Queue_sim.arrived
          (Lrd_fluidsim.Queue_sim.utilization stats ~service_rate:c)
          stats.Lrd_fluidsim.Queue_sim.max_occupancy (buffer *. c);
        `Ok ()
  in
  let doc = "trace-driven finite-buffer fluid-queue simulation" in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      ret
        (const run $ seed_arg $ utilization_arg $ buffer_arg $ block_arg
       $ file_arg))

(* ------------------------------------------------------------------ *)
(* fit *)

let fit_cmd =
  let file_arg =
    let doc = "Trace file to fit." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let hurst_arg =
    let doc =
      "Hurst parameter in (0.5, 1) (default: wavelet estimate from the \
       trace)."
    in
    Arg.(
      value & opt (some hurst_conv) None & info [ "H"; "hurst" ] ~docv:"H" ~doc)
  in
  let run utilization buffer hurst path metrics metrics_out trace_out =
    with_telemetry ?trace_out metrics metrics_out @@ fun () ->
    match read_trace path with
    | Error msg -> `Error (false, msg)
    | Ok trace ->
        let c =
          Lrd_trace.Trace.service_rate_for_utilization trace ~utilization
        in
        with_finite_buffer ~buffer c @@ fun () ->
        let model, cutoff =
          try
            Lrd_core.Fitting.for_buffer ?hurst trace ~utilization
              ~buffer_seconds:buffer
          with Invalid_argument msg -> reject_trace ~cmd:"fit" ~path msg
        in
        Format.printf
          "horizon-fitted model for B = %g s at utilization %g:@." buffer
          utilization;
        Format.printf "  %a@." Lrd_core.Model.pp model;
        Format.printf
          "  cutoff lag = correlation horizon = %.4g s (eq. 26, p = 0.01)@."
          cutoff;
        let result =
          Lrd_core.Solver.solve_utilization model ~utilization
            ~buffer_seconds:buffer
        in
        Format.printf "  predicted %a@." Lrd_core.Solver.pp_result result;
        (* Cross-check against the trace itself. *)
        let sim =
          Lrd_fluidsim.Queue_sim.make ~service_rate:c ~buffer:(buffer *. c) ()
        in
        let stats = Lrd_fluidsim.Queue_sim.run_trace sim trace in
        Format.printf "  trace-driven simulation: %.4g@."
          (Lrd_fluidsim.Queue_sim.loss_rate stats);
        `Ok ()
  in
  let doc =
    "fit the most parsimonious adequate model for a target queue \
     (cutoff = its correlation horizon)"
  in
  Cmd.v (Cmd.info "fit" ~doc)
    Term.(
      ret
        (const run $ utilization_arg $ buffer_arg $ hurst_arg $ file_arg
       $ metrics_format_arg $ metrics_out_arg
       $ trace_out_arg))

(* ------------------------------------------------------------------ *)
(* ams *)

let ams_cmd =
  let sources_arg =
    let doc = "Number of on/off sources." in
    Arg.(value & opt int 6 & info [ "n"; "sources" ] ~docv:"N" ~doc)
  in
  let on_rate_arg =
    let doc = "Rate emitted while ON." in
    Arg.(value & opt float 1.0 & info [ "rate" ] ~docv:"R" ~doc)
  in
  let lambda_arg =
    let doc = "OFF -> ON transition rate." in
    Arg.(value & opt float 1.0 & info [ "lambda" ] ~docv:"L" ~doc)
  in
  let mu_arg =
    let doc = "ON -> OFF transition rate." in
    Arg.(value & opt float 2.0 & info [ "mu" ] ~docv:"M" ~doc)
  in
  let service_arg =
    let doc = "Service rate (must avoid the lattice j * rate)." in
    Arg.(value & opt float 2.7 & info [ "c"; "service" ] ~docv:"C" ~doc)
  in
  let levels_arg =
    let doc = "Buffer levels to evaluate." in
    Arg.(
      value
      & opt (list float) [ 0.5; 1.0; 2.0; 4.0 ]
      & info [ "levels" ] ~docv:"LEVELS" ~doc)
  in
  let run sources on_rate lambda mu service_rate levels =
    try
      let sys =
        Lrd_baselines.Ams.create ~sources ~on_rate ~lambda ~mu ~service_rate
      in
      Format.printf
        "mean rate %.4g, utilization %.4f; negative eigenvalues:"
        (Lrd_baselines.Ams.mean_rate sys)
        (Lrd_baselines.Ams.utilization sys);
      Array.iter
        (fun z -> Format.printf " %.5g" z)
        (Lrd_baselines.Ams.negative_eigenvalues sys);
      Format.printf "@.%10s %16s %16s@." "level" "P(Q > level)"
        "loss at B=level";
      List.iter
        (fun level ->
          Format.printf "%10g %16.6e %16.6e@." level
            (Lrd_baselines.Ams.overflow_probability sys ~level)
            (Lrd_baselines.Ams.finite_buffer_loss sys ~buffer:level))
        levels;
      `Ok ()
    with Invalid_argument msg | Failure msg -> `Error (false, msg)
  in
  let doc =
    "exact Anick-Mitra-Sondhi analysis of N exponential on/off sources"
  in
  Cmd.v (Cmd.info "ams" ~doc)
    Term.(
      ret
        (const run $ sources_arg $ on_rate_arg $ lambda_arg $ mu_arg
       $ service_arg $ levels_arg))

(* ------------------------------------------------------------------ *)
(* stationarity *)

let stationarity_cmd =
  let file_arg =
    let doc = "Trace file to diagnose." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run seed path =
    match read_trace path with
    | Error msg -> `Error (false, msg)
    | Ok trace ->
        let data = trace.Lrd_trace.Trace.rates in
        let rng = Lrd_rng.Rng.create ~seed in
        let cusum, shift, wavelet, surrogate_h =
          try
            ( Lrd_stats.Stationarity.cusum data,
              Lrd_stats.Stationarity.split_half_mean_shift data,
              (Lrd_stats.Hurst.abry_veitch data).Lrd_stats.Hurst.hurst,
              (Lrd_stats.Hurst.abry_veitch
                 (Lrd_stats.Stationarity.phase_randomized_surrogate rng data))
                .Lrd_stats.Hurst.hurst )
          with Invalid_argument msg ->
            reject_trace ~cmd:"stationarity" ~path msg
        in
        Format.printf
          "CUSUM statistic %.3f (short-memory 5%% critical value %.3f), \
           change point at sample %d@."
          cusum.Lrd_stats.Stationarity.statistic
          cusum.Lrd_stats.Stationarity.critical_5pct
          cusum.Lrd_stats.Stationarity.change_point;
        Format.printf "split-half mean shift: %.2f standard errors@." shift;
        Format.printf
          "wavelet H: %.3f (trace) vs %.3f (phase-randomized surrogate)@."
          wavelet surrogate_h;
        Format.printf
          "(H surviving phase randomization favours genuine linear LRD; a \
           CUSUM far beyond the critical value with a collapsing surrogate \
           H favours level shifts - and under true LRD the CUSUM \
           normalization over-rejects, which is the ambiguity the paper \
           describes)@.";
        `Ok ()
  in
  let doc = "LRD-vs-level-shift stationarity diagnostics for a trace" in
  Cmd.v (Cmd.info "stationarity" ~doc)
    Term.(ret (const run $ seed_arg $ file_arg))

(* ------------------------------------------------------------------ *)
(* provision *)

let provision_cmd =
  let target_arg =
    let doc = "Target loss rate, in [1e-10, 1)." in
    Arg.(
      value
      & opt
          (checked_float ~expected:"a loss target in [1e-10, 1)" (fun t ->
               t >= 1e-10 && t < 1.0))
          1e-6
      & info [ "target" ] ~docv:"LOSS" ~doc)
  in
  let knob_arg =
    let doc = "Knob to invert: buffer, utilization, or streams." in
    Arg.(
      value
      & opt
          (enum
             [
               ("buffer", `Buffer);
               ("utilization", `Utilization);
               ("streams", `Streams);
             ])
          `Buffer
      & info [ "knob" ] ~docv:"KNOB" ~doc)
  in
  let marginal_arg =
    let doc = "Built-in marginal: mtv or bellcore." in
    Arg.(value & opt marginal_conv `Mtv & info [ "marginal" ] ~docv:"NAME" ~doc)
  in
  let hurst_arg =
    let doc = "Hurst parameter in (0.5, 1)." in
    Arg.(value & opt hurst_conv 0.83 & info [ "H"; "hurst" ] ~docv:"H" ~doc)
  in
  let cutoff_arg =
    let doc = "Cutoff lag in seconds (inf for self-similar)." in
    Arg.(
      value & opt cutoff_conv Float.infinity & info [ "cutoff" ] ~docv:"TC" ~doc)
  in
  let run quick seed utilization buffer knob marginal_name trace hurst cutoff
      target =
    let ctx = Lrd_experiments.Data.create ~seed ~quick () in
    let model_result =
      match trace with
      | Some path ->
          Result.map
            (fun t -> Lrd_core.Model.fit_from_trace ~hurst ~cutoff t)
            (read_trace path)
      | None ->
          let theta =
            Lrd_dist.Interarrival.theta_for_mean_epoch
              ~mean_epoch:(builtin_mean_epoch ctx marginal_name)
              ~alpha:(Lrd_core.Model.alpha_of_hurst hurst)
              ()
          in
          Ok
            (Lrd_core.Model.of_hurst
               ~marginal:(builtin_marginal ctx marginal_name)
               ~hurst ~theta ~cutoff)
    in
    match model_result with
    | Error msg -> `Error (false, msg)
    | Ok model -> (
        let describe label = function
          | Lrd_core.Provision.Achieved v ->
              Format.printf "%s: %.5g@." label v
          | Lrd_core.Provision.Unachievable_within v ->
              Format.printf "%s: not achievable within %.5g@." label v
        in
        try
          (match knob with
          | `Buffer ->
              describe "required buffer (seconds)"
                (Lrd_core.Provision.buffer_for_loss model ~utilization
                   ~target)
          | `Utilization ->
              describe "maximum utilization"
                (Lrd_core.Provision.utilization_for_loss model
                   ~buffer_seconds:buffer ~target)
          | `Streams ->
              describe "required multiplexed streams"
                (Lrd_core.Provision.streams_for_loss model ~utilization
                   ~buffer_seconds:buffer ~target));
          `Ok ()
        with Failure msg | Invalid_argument msg -> `Error (false, msg))
  in
  let doc = "invert the solver: parameter needed to meet a loss target" in
  Cmd.v (Cmd.info "provision" ~doc)
    Term.(
      ret
        (const run $ quick_arg $ seed_arg $ utilization_arg $ buffer_arg
       $ knob_arg $ marginal_arg $ trace_file_arg $ hurst_arg $ cutoff_arg
       $ target_arg))

(* ------------------------------------------------------------------ *)
(* experiment *)

let experiment_cmd =
  let ids_arg =
    let doc = "Experiment ids to run (default: all).  Use $(b,list) to \
               print the available ids." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let jobs_arg =
    let doc = "Parallelism of the sweep grids: 1 runs their cells one \
               at a time (the default), 0 auto-sizes to the machine, \
               N >= 2 spreads grid cells over N domains.  Independently \
               of $(docv), a solve steps its floor and ceiling chains \
               on two domains when the machine has two cores and a \
               second domain is free: outside a grid pool (a one-shot \
               solve, or any grid cell at 1), and in a grid pool once \
               another of its domains has run out of grid cells.  \
               Results are identical for every value." in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let manifest_arg =
    let doc =
      "Write a run provenance manifest to $(docv): the figure ids run, \
       the full parameter set (seed, jobs, solver parameters, sweep \
       grids), git revision + dirty flag, OCaml version, wall time, and \
       the final metrics snapshot when $(b,--metrics) is on.  Two runs \
       with the same seed and flags produce identical manifests modulo \
       the generated_at_unix / wall_seconds lines."
    in
    Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE" ~doc)
  in
  let superpose_arg =
    let doc =
      "Aggregate-marginal construction for the superposition \
       experiments: $(b,exact) forces the repeated-squaring \
       transform-domain convolution, $(b,edgeworth) forces the \
       cumulant-sum closed form, and $(b,auto) (the default) picks \
       exact whenever the transform grid fits the cost model's cap."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("exact", Lrd_core.Superpose.Exact);
               ("edgeworth", Lrd_core.Superpose.Edgeworth);
               ("auto", Lrd_core.Superpose.Auto);
             ])
          Lrd_core.Superpose.Auto
      & info [ "superpose" ] ~docv:"METHOD" ~doc)
  in
  let run quick seed jobs superpose metrics metrics_out metrics_interval
      trace_out manifest ids =
    with_telemetry ?metrics_interval ?trace_out metrics metrics_out
    @@ fun () ->
    match
      try Ok (Lrd_experiments.Data.create ~seed ~jobs ~superpose ~quick ())
      with Invalid_argument msg -> Error msg
    with
    | Error msg -> `Error (false, msg)
    | Ok ctx ->
        Fun.protect
          ~finally:(fun () -> Lrd_experiments.Data.teardown ctx)
          (fun () ->
            match ids with
            | [ "list" ] ->
                List.iter
                  (fun e ->
                    Format.printf "%-18s %s@." e.Lrd_experiments.Registry.id
                      e.Lrd_experiments.Registry.title)
                  Lrd_experiments.Registry.all;
                `Ok ()
            | [] ->
                Lrd_experiments.Registry.run ?manifest ctx Format.std_formatter;
                `Ok ()
            | ids -> (
                try
                  Lrd_experiments.Registry.run ~only:ids ?manifest ctx
                    Format.std_formatter;
                  `Ok ()
                with Invalid_argument msg -> `Error (false, msg)))
  in
  let doc = "run the paper's figures and the ablations" in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(
      ret
        (const run $ quick_arg $ seed_arg $ jobs_arg $ superpose_arg
       $ metrics_format_arg $ metrics_out_arg $ metrics_interval_arg
       $ trace_out_arg $ manifest_arg $ ids_arg))

(* ------------------------------------------------------------------ *)
(* metrics diff *)

let metrics_cmd =
  let diff_cmd =
    let base_arg =
      let doc =
        "Baseline snapshot: a $(b,--metrics json) file, a bench \
         $(b,--json) baseline (BENCH_micro.json), or a run manifest."
      in
      Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE" ~doc)
    in
    let current_arg =
      let doc = "Current snapshot to compare, in any of the same formats." in
      Arg.(required & pos 1 (some string) None & info [] ~docv:"CURRENT" ~doc)
    in
    let threshold_arg =
      let doc =
        "Regression ratio: a series regresses when current > $(docv) x \
         base (decreases never regress)."
      in
      Arg.(value & opt float 2.0 & info [ "threshold" ] ~docv:"RATIO" ~doc)
    in
    let min_abs_arg =
      let doc =
        "Additionally require the absolute increase to reach $(docv) \
         before calling a regression (filters noise on tiny series)."
      in
      Arg.(value & opt float 0.0 & info [ "min-abs" ] ~docv:"DELTA" ~doc)
    in
    let filter_arg =
      let doc =
        "Compare only series whose name contains $(docv) (e.g. \
         $(b,kernel/) to gate just the CPU micro-kernels)."
      in
      Arg.(
        value & opt (some string) None & info [ "filter" ] ~docv:"SUBSTR" ~doc)
    in
    let exact_arg =
      let doc =
        "Equivalence gating: any numeric difference on a series present \
         in both snapshots — either direction, any size — is a \
         regression (exit 3).  Names on one side only still warn.  \
         Used to assert that a run manifest embeds the same final \
         snapshot as the run's $(b,--metrics-out) file."
      in
      Arg.(value & flag & info [ "exact" ] ~doc)
    in
    let run base current threshold min_abs filter exact =
      (* Exit codes mirror the bench harness: 0 clean, 3 regression,
         2 unreadable or unrecognized input.  Names present on only one
         side warn without failing, so an --only-filtered run can be
         diffed against a full baseline. *)
      exit
        (Lrd_obs.Diff.run ~threshold ~min_abs ?filter ~exact ~base ~current ())
    in
    let doc =
      "compare two metrics snapshots (exit 0 clean, 3 on regression, 2 \
       on unreadable input)"
    in
    Cmd.v (Cmd.info "diff" ~doc)
      Term.(
        const run $ base_arg $ current_arg $ threshold_arg $ min_abs_arg
        $ filter_arg $ exact_arg)
  in
  let doc = "inspect and compare metrics snapshots" in
  Cmd.group (Cmd.info "metrics" ~doc) [ diff_cmd ]

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "cutoff-correlated fluid traffic model and finite-buffer loss solver \
     (Grossglauser & Bolot, SIGCOMM '96)"
  in
  let info = Cmd.info "lrd" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [
        solve_cmd;
        trace_cmd;
        hurst_cmd;
        simulate_cmd;
        provision_cmd;
        fit_cmd;
        ams_cmd;
        stationarity_cmd;
        experiment_cmd;
        metrics_cmd;
      ]
  in
  (* A command line the parser or a converter rejects is bad input, and
     so is an [`Error] a command returns (a missing trace file, say):
     cmdliner has printed the message, and the tool exits 2.  An output
     path that cannot be written ([Sys_error]) is bad input too; any
     other exception is an internal error. *)
  exit
    (match Cmd.eval_value ~catch:false cmd with
    | Ok (`Ok () | `Help | `Version) -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error
    | exception Sys_error msg ->
        prerr_endline ("lrd: " ^ msg);
        2
    | exception e ->
        prerr_endline
          ("lrd: internal error, uncaught exception: " ^ Printexc.to_string e);
        Cmd.Exit.internal_error)
