(* Extension: Hurst-estimator comparison.  The paper takes its H values
   from "a Whittle or wavelet based estimator"; this table runs all five
   estimators implemented here over controlled inputs (white noise, fGn
   at two H values, the two synthetic traces, and an M/G/inf session
   trace), exposing each estimator's bias on composite processes. *)

let id = "ext-estimators"
let title = "Extension: five Hurst estimators over controlled inputs"

let run ctx fmt =
  let quick = Data.quick ctx in
  let n = if quick then 16_384 else 65_536 in
  let rng = Lrd_rng.Rng.create ~seed:(Int64.add (Data.seed ctx) 41L) in
  let white =
    Array.init n (fun _ -> Lrd_rng.Sampler.normal rng ~mean:0.0 ~std:1.0)
  in
  (* Per-domain plans: bit-identical to [davies_harte] on the same RNG
     stream, but the eigenvalue setup is cached across quick/full reruns
     in one process. *)
  let fgn07 =
    Lrd_trace.Fgn.Plan.generate (Lrd_trace.Fgn.domain_plan ~hurst:0.7 ~n) rng
  in
  let fgn09 =
    Lrd_trace.Fgn.Plan.generate (Lrd_trace.Fgn.domain_plan ~hurst:0.9 ~n) rng
  in
  let mginf =
    (Lrd_trace.Mginf.generate rng ~slots:n ~slot:0.01).Lrd_trace.Trace.rates
  in
  let farima = Lrd_trace.Farima.generate rng ~d:0.3 ~n in
  let inputs =
    [
      ("white (0.5)", white);
      ("fgn (0.7)", fgn07);
      ("fgn (0.9)", fgn09);
      ("farima (0.8)", farima);
      ("video (0.83)", (Data.mtv ctx).Lrd_trace.Trace.rates);
      ("ethernet (0.9)", (Data.bellcore ctx).Lrd_trace.Trace.rates);
      ( Printf.sprintf "mginf (%.2f)"
          (Lrd_trace.Mginf.hurst Lrd_trace.Mginf.default),
        mginf );
    ]
  in
  Table.heading fmt title;
  Format.fprintf fmt "%16s %9s %9s %9s %9s %9s@." "input (nominal H)"
    "agg-var" "R/S" "GPH" "wavelet" "whittle";
  List.iter
    (fun (name, data) ->
      let safe f = try f data with Invalid_argument _ -> Float.nan in
      Format.fprintf fmt "%16s %9.3f %9.3f %9.3f %9.3f %9.3f@." name
        (safe (fun d ->
             (Lrd_stats.Hurst.aggregated_variance d).Lrd_stats.Hurst.hurst))
        (safe (fun d ->
             (Lrd_stats.Hurst.rescaled_range d).Lrd_stats.Hurst.hurst))
        (safe (fun d -> (Lrd_stats.Hurst.gph d).Lrd_stats.Hurst.hurst))
        (safe (fun d ->
             (Lrd_stats.Hurst.abry_veitch d).Lrd_stats.Hurst.hurst))
        (safe (fun d ->
             (Lrd_stats.Whittle.local_whittle d).Lrd_stats.Whittle.hurst)))
    inputs;
  Format.fprintf fmt
    "(pure fGn is every estimator's home turf; composite processes - \
     scene-based video, on/off aggregates, session traffic - split the \
     estimators, which is why the paper quotes estimator-based H values \
     only to one or two digits)@."
