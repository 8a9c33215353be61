type entry = {
  id : string;
  title : string;
  run : Data.t -> Format.formatter -> unit;
}

let entry id title run = { id; title; run }

let figures =
  [
    entry Fig02.id Fig02.title Fig02.run;
    entry Fig03.id Fig03.title Fig03.run;
    entry Fig04.id Fig04.title Fig04.run;
    entry Fig05.id Fig05.title Fig05.run;
    entry Fig06.id Fig06.title Fig06.run;
    entry Fig07.id Fig07.title Fig07.run;
    entry Fig08.id Fig08.title Fig08.run;
    entry Fig09.id Fig09.title Fig09.run;
    entry Fig10.id Fig10.title Fig10.run;
    entry Fig11.id Fig11.title Fig11.run;
    entry Fig12.id Fig12.title Fig12.run;
    entry Fig13.id Fig13.title Fig13.run;
    entry Fig14.id Fig14.title Fig14.run;
  ]

let ablations =
  [
    entry Abl_interarrival.id Abl_interarrival.title Abl_interarrival.run;
    entry Abl_shuffle.id Abl_shuffle.title Abl_shuffle.run;
    entry Abl_markov.id Abl_markov.title Abl_markov.run;
    entry Abl_solver.id Abl_solver.title Abl_solver.run;
  ]

let extensions =
  [
    entry Ext_tails.id Ext_tails.title Ext_tails.run;
    entry Ext_estimators.id Ext_estimators.title Ext_estimators.run;
    entry Ext_provision.id Ext_provision.title Ext_provision.run;
    entry Ext_occupancy.id Ext_occupancy.title Ext_occupancy.run;
    entry Ext_horizon.id Ext_horizon.title Ext_horizon.run;
    entry Ext_tandem.id Ext_tandem.title Ext_tandem.run;
    entry Ext_stationarity.id Ext_stationarity.title Ext_stationarity.run;
    entry Ext_packet.id Ext_packet.title Ext_packet.run;
    entry Ext_ams.id Ext_ams.title Ext_ams.run;
    entry Ext_parsimony.id Ext_parsimony.title Ext_parsimony.run;
    entry Ext_delay_horizon.id Ext_delay_horizon.title Ext_delay_horizon.run;
    entry Ext_control.id Ext_control.title Ext_control.run;
    entry Ext_priority.id Ext_priority.title Ext_priority.run;
    entry Ext_confidence.id Ext_confidence.title Ext_confidence.run;
    entry Fig11_scale.id Fig11_scale.title Fig11_scale.run;
  ]

let all = figures @ ablations @ extensions
let find id = List.find_opt (fun e -> e.id = id) all

module Obs = Lrd_obs.Obs

let m_runs = Obs.Counter.make "experiment/runs"
let m_wall = Obs.Span.make "experiment/wall_seconds"

let run ?only ?manifest ctx fmt =
  let selected =
    match only with
    | None -> all
    | Some ids ->
        List.iter
          (fun id ->
            if find id = None then
              invalid_arg (Printf.sprintf "Registry.run: unknown id %S" id))
          ids;
        List.filter (fun e -> List.mem e.id ids) all
  in
  let run_t0 = Unix.gettimeofday () in
  List.iter
    (fun e ->
      Obs.Counter.incr m_runs;
      let t0 = Unix.gettimeofday () in
      let w0 = Obs.Span.start () in
      if Obs.Trace.enabled () then Obs.Trace.begin_ ("experiment/" ^ e.id);
      Fun.protect
        ~finally:(fun () ->
          if Obs.Trace.enabled () then Obs.Trace.end_ ("experiment/" ^ e.id))
        (fun () -> e.run ctx fmt);
      (* Per-figure wall time lands in a gauge named after the figure
         (each figure runs once per invocation) plus the shared
         histogram for an all-up latency distribution. *)
      Obs.Span.stop m_wall w0;
      if Obs.enabled () then
        Obs.Gauge.set
          (Obs.Gauge.make ("experiment/" ^ e.id ^ "/wall_seconds"))
          (Obs.now () -. w0);
      Printf.eprintf "[%s completed in %.2f s]\n%!" e.id
        (Unix.gettimeofday () -. t0))
    selected;
  match manifest with
  | None -> ()
  | Some path ->
      (* Shut the pool down first: a parked worker records its last
         pool/idle_seconds span only when it stops, so a snapshot taken
         before teardown would differ from the caller's final one. *)
      Data.teardown ctx;
      let metrics =
        if Lrd_obs.Obs.enabled () then
          (* Re-parse the canonical exporter's output rather than
             rebuilding the tree here, so the embedded snapshot is
             byte-equivalent to what --metrics-out writes. *)
          match Lrd_obs.Json.parse (Lrd_obs.Obs.to_json (Obs.snapshot ())) with
          | Ok v -> Some v
          | Error _ -> None
        else None
      in
      Lrd_obs.Manifest.write path
        (Lrd_obs.Manifest.make
           ~figures:(List.map (fun e -> e.id) selected)
           ~parameters:(Data.manifest_fields ctx)
           ~wall_seconds:(Unix.gettimeofday () -. run_t0)
           ?metrics ~tool:"lrd experiment" ())
