open Lrd_trace

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let rng () = Lrd_rng.Rng.create ~seed:31415L

(* ------------------------------------------------------------------ *)
(* Trace basics *)

let test_trace_stats () =
  let t = Trace.create ~rates:[| 1.0; 3.0; 2.0 |] ~slot:0.5 in
  Alcotest.(check int) "length" 3 (Trace.length t);
  check_close "duration" 1.5 (Trace.duration t);
  check_close "mean" 2.0 (Trace.mean t);
  check_close "peak" 3.0 (Trace.peak t);
  check_close "work" 3.0 (Trace.total_work t);
  check_close "service for util 0.5" 4.0
    (Trace.service_rate_for_utilization t ~utilization:0.5)

let test_trace_scale_to_mean () =
  let t = Trace.create ~rates:[| 1.0; 3.0 |] ~slot:1.0 in
  let s = Trace.scale_to_mean t ~mean:10.0 in
  check_close "mean" 10.0 (Trace.mean s);
  check_close "ratio preserved" 3.0 (Trace.peak s /. 5.0)

let test_trace_sub () =
  let t = Trace.create ~rates:[| 1.0; 2.0; 3.0; 4.0 |] ~slot:1.0 in
  let s = Trace.sub t ~pos:1 ~len:2 in
  check_close "first" 2.0 s.Trace.rates.(0);
  Alcotest.(check int) "len" 2 (Trace.length s);
  Alcotest.check_raises "oob" (Invalid_argument "Trace.sub: slice out of bounds")
    (fun () -> ignore (Trace.sub t ~pos:3 ~len:2))

let test_trace_aggregate () =
  let t = Trace.create ~rates:[| 1.0; 3.0; 5.0; 7.0; 9.0 |] ~slot:0.5 in
  let a = Trace.aggregate t ~factor:2 in
  Alcotest.(check int) "blocks" 2 (Trace.length a);
  check_close "slot" 1.0 a.Trace.slot;
  check_close "block 0" 2.0 a.Trace.rates.(0);
  check_close "block 1" 6.0 a.Trace.rates.(1);
  check_close "work preserved per block" (Trace.mean a) 4.0;
  Alcotest.check_raises "too coarse"
    (Invalid_argument "Trace.aggregate: trace shorter than one block")
    (fun () -> ignore (Trace.aggregate t ~factor:6))

let test_trace_resample_conserves_work () =
  let rng2 = rng () in
  let t =
    Trace.create
      ~rates:(Array.init 999 (fun _ -> Lrd_rng.Rng.float rng2 *. 4.0))
      ~slot:0.01
  in
  (* Downsample to an incommensurate slot. *)
  let r = Trace.resample t ~slot:0.033 in
  check_close "slot" 0.033 r.Trace.slot;
  (* Work over the covered span matches the original's. *)
  let covered = Trace.duration r in
  let original_work =
    let full_slots = int_of_float (covered /. 0.01) in
    Trace.total_work (Trace.sub t ~pos:0 ~len:full_slots)
    +. (covered -. (float_of_int full_slots *. 0.01))
       *. t.Trace.rates.(full_slots)
  in
  check_close ~eps:1e-9 "work conserved" original_work (Trace.total_work r)

let test_trace_resample_identity () =
  let t = Trace.create ~rates:[| 1.0; 2.0; 3.0; 4.0 |] ~slot:0.5 in
  let r = Trace.resample t ~slot:0.5 in
  Alcotest.(check int) "length" 4 (Trace.length r);
  Array.iteri (fun i v -> check_close "rate" t.Trace.rates.(i) v) r.Trace.rates;
  (* Upsampling a constant trace keeps the level. *)
  let u = Trace.resample t ~slot:0.25 in
  check_close "upsampled first" 1.0 u.Trace.rates.(0);
  check_close "upsampled second" 1.0 u.Trace.rates.(1)

let test_trace_aggregate_variance_time () =
  (* White noise: aggregated variance decays like 1/factor. *)
  let r = rng () in
  let t =
    Trace.create
      ~rates:(Array.init 64_000 (fun _ -> Lrd_rng.Rng.float r))
      ~slot:1.0
  in
  let v1 = Trace.variance t in
  let v16 = Trace.variance (Trace.aggregate t ~factor:16) in
  check_close ~eps:0.15 "1/m decay" (v1 /. 16.0) v16

let test_trace_rejects_bad_input () =
  Alcotest.check_raises "empty" (Invalid_argument "Trace.create: empty trace")
    (fun () -> ignore (Trace.create ~rates:[||] ~slot:1.0));
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Trace.create: rates must be finite and nonnegative")
    (fun () -> ignore (Trace.create ~rates:[| -1.0 |] ~slot:1.0));
  Alcotest.check_raises "bad slot"
    (Invalid_argument "Trace.create: slot must be positive") (fun () ->
      ignore (Trace.create ~rates:[| 1.0 |] ~slot:0.0))

(* ------------------------------------------------------------------ *)
(* fGn *)

let test_fgn_autocovariance_function () =
  (* White noise at H = 1/2. *)
  check_close "H=0.5 lag0" 1.0 (Fgn.autocovariance ~hurst:0.5 0);
  check_close "H=0.5 lag1" 0.0 (Fgn.autocovariance ~hurst:0.5 1);
  check_close "H=0.5 lag5" 0.0 (Fgn.autocovariance ~hurst:0.5 5);
  (* Positive correlation for H > 1/2, negative for H < 1/2. *)
  Alcotest.(check bool) "H=0.8 lag1 positive" true
    (Fgn.autocovariance ~hurst:0.8 1 > 0.0);
  Alcotest.(check bool) "H=0.3 lag1 negative" true
    (Fgn.autocovariance ~hurst:0.3 1 < 0.0);
  (* Symmetric in the lag. *)
  check_close "symmetry" (Fgn.autocovariance ~hurst:0.7 3)
    (Fgn.autocovariance ~hurst:0.7 (-3))

let empirical_acv xs lag =
  let n = Array.length xs in
  let m = Lrd_numerics.Array_ops.mean xs in
  let acc = ref 0.0 in
  for i = 0 to n - 1 - lag do
    acc := !acc +. ((xs.(i) -. m) *. (xs.(i + lag) -. m))
  done;
  !acc /. float_of_int n

let test_davies_harte_covariance_structure () =
  let hurst = 0.8 in
  let xs = Fgn.davies_harte (rng ()) ~hurst ~n:65_536 in
  check_close ~eps:0.05 "variance" 1.0 (Lrd_numerics.Array_ops.variance xs);
  (* The sample mean of LRD data converges like n^(H-1), much slower
     than sqrt n; shift by 1 to dodge relative-eps-at-zero. *)
  check_close ~eps:0.2 "mean" 1.0 (Lrd_numerics.Array_ops.mean xs +. 1.0);
  List.iter
    (fun lag ->
      check_close ~eps:0.12
        (Printf.sprintf "acv lag %d" lag)
        (Fgn.autocovariance ~hurst lag)
        (empirical_acv xs lag))
    [ 1; 2; 4; 8 ]

let test_hosking_matches_davies_harte_statistics () =
  let hurst = 0.7 and n = 2048 in
  let xs = Fgn.hosking (rng ()) ~hurst ~n in
  check_close ~eps:0.1 "variance" 1.0 (Lrd_numerics.Array_ops.variance xs);
  check_close ~eps:0.15 "acv lag 1" (Fgn.autocovariance ~hurst 1)
    (empirical_acv xs 1);
  check_close ~eps:0.2 "acv lag 4" (Fgn.autocovariance ~hurst 4)
    (empirical_acv xs 4)

let test_fgn_plan_bit_identical () =
  (* The plan caches the eigenvalue spectrum and scratch; its draws must
     be bitwise the ones davies_harte produces from the same rng state,
     including across plan reuse. *)
  let hurst = 0.8 and n = 1000 in
  let reference = Fgn.davies_harte (rng ()) ~hurst ~n in
  let plan = Fgn.Plan.make ~hurst ~n in
  Alcotest.(check bool) "generate bitwise" true
    (reference = Fgn.Plan.generate plan (rng ()));
  let dst = Array.make n Float.nan in
  Fgn.Plan.draw plan (rng ()) ~dst;
  Alcotest.(check bool) "draw into dst bitwise" true (reference = dst);
  (* Reuse: a second draw from the same plan with a fresh rng reproduces
     the stream exactly (the scratch carries no state between draws). *)
  Fgn.Plan.draw plan (rng ()) ~dst;
  Alcotest.(check bool) "reused plan bitwise" true (reference = dst);
  (* The per-domain arena hands back an equivalent plan. *)
  Alcotest.(check bool) "domain plan bitwise" true
    (reference = Fgn.Plan.generate (Fgn.domain_plan ~hurst ~n) (rng ()));
  Alcotest.check_raises "short dst"
    (Invalid_argument "Circulant.draw: dst too short") (fun () ->
      Fgn.Plan.draw plan (rng ()) ~dst:(Array.make (n - 1) 0.0))

let test_generators_match_target_autocovariance () =
  (* Both exact generators must agree with the closed-form target
     autocovariance when averaged over independent replications: this
     pins the generators to the model, not just to each other. *)
  let hurst = 0.75 and n = 512 and reps = 40 in
  let mean_acv generate lag =
    let acc = ref 0.0 in
    let r = rng () in
    for _ = 1 to reps do
      acc := !acc +. empirical_acv (generate r) lag
    done;
    !acc /. float_of_int reps
  in
  let plan = Fgn.Plan.make ~hurst ~n in
  List.iter
    (fun lag ->
      let target = Fgn.autocovariance ~hurst lag in
      check_close ~eps:0.12
        (Printf.sprintf "davies-harte lag %d" lag)
        target
        (mean_acv (fun r -> Fgn.Plan.generate plan r) lag);
      check_close ~eps:0.12
        (Printf.sprintf "hosking lag %d" lag)
        target
        (mean_acv (fun r -> Fgn.hosking r ~hurst ~n) lag))
    [ 0; 1; 4 ]

let test_fgn_rejects_bad_hurst () =
  Alcotest.check_raises "hurst 1" (Invalid_argument "Fgn: hurst must lie in (0, 1)")
    (fun () -> ignore (Fgn.davies_harte (rng ()) ~hurst:1.0 ~n:16));
  Alcotest.check_raises "n 0"
    (Invalid_argument "Fgn.davies_harte: n must be positive") (fun () ->
      ignore (Fgn.davies_harte (rng ()) ~hurst:0.5 ~n:0))

(* ------------------------------------------------------------------ *)
(* On/off aggregation *)

let test_onoff_mean_rate () =
  let src =
    Onoff.pareto_source ~peak_rate:2.0 ~mean_on:0.1 ~mean_off:0.3
      ~alpha_on:1.5 ~alpha_off:1.8
  in
  let sources = List.init 10 (fun _ -> src) in
  check_close ~eps:1e-12 "expected mean" 5.0 (Onoff.expected_mean_rate sources);
  let t = Onoff.generate (rng ()) ~sources ~slots:40_000 ~slot:0.05 in
  check_close ~eps:0.1 "empirical mean" 5.0 (Trace.mean t)

let test_onoff_rate_bounded_by_aggregate_peak () =
  let src =
    Onoff.pareto_source ~peak_rate:1.0 ~mean_on:0.1 ~mean_off:0.1
      ~alpha_on:1.5 ~alpha_off:1.5
  in
  let t = Onoff.generate (rng ()) ~sources:[ src; src; src ] ~slots:5_000 ~slot:0.02 in
  Alcotest.(check bool) "peak bounded" true (Trace.peak t <= 3.0 +. 1e-9)

let test_onoff_work_conservation () =
  (* Average of per-slot rates equals deposited work / duration.  Use
     light-tailed periods (alpha = 3.5, finite variance) so the sample
     duty cycle converges at sqrt-n speed. *)
  let src =
    Onoff.pareto_source ~peak_rate:1.5 ~mean_on:0.2 ~mean_off:0.2
      ~alpha_on:3.5 ~alpha_off:3.5
  in
  let t = Onoff.generate (rng ()) ~sources:[ src ] ~slots:50_000 ~slot:0.01 in
  check_close ~eps:0.08 "duty cycle" 0.75 (Trace.mean t)

let test_onoff_rejects_bad_input () =
  Alcotest.check_raises "no sources"
    (Invalid_argument "Onoff.generate: no sources") (fun () ->
      ignore (Onoff.generate (rng ()) ~sources:[] ~slots:10 ~slot:0.1))

(* ------------------------------------------------------------------ *)
(* Shuffling *)

let sorted_copy a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let test_external_shuffle_preserves_marginal () =
  let t =
    Trace.create ~rates:(Array.init 1000 (fun i -> float_of_int (i mod 37)))
      ~slot:1.0
  in
  let s = Shuffle.external_shuffle (rng ()) t ~block:10 in
  Alcotest.(check int) "length" 1000 (Trace.length s);
  Alcotest.(check bool) "same multiset" true
    (sorted_copy s.Trace.rates = sorted_copy t.Trace.rates)

let test_external_shuffle_preserves_blocks () =
  let t =
    Trace.create ~rates:(Array.init 100 (fun i -> float_of_int i)) ~slot:1.0
  in
  let s = Shuffle.external_shuffle (rng ()) t ~block:10 in
  (* Every aligned block of 10 in the shuffle must be a contiguous run
     starting at a multiple of 10 in the original. *)
  for b = 0 to 9 do
    let first = s.Trace.rates.(b * 10) in
    Alcotest.(check bool) "block start aligned" true
      (Float.rem first 10.0 = 0.0);
    for k = 1 to 9 do
      check_close "consecutive inside block" (first +. float_of_int k)
        s.Trace.rates.((b * 10) + k)
    done
  done

let test_external_shuffle_truncates_partial_block () =
  let t = Trace.create ~rates:(Array.init 25 float_of_int) ~slot:1.0 in
  let s = Shuffle.external_shuffle (rng ()) t ~block:10 in
  Alcotest.(check int) "truncated" 20 (Trace.length s)

let test_external_shuffle_kills_long_correlation () =
  (* Strongly correlated input: slow square wave. *)
  let n = 16_384 in
  let t =
    Trace.create
      ~rates:(Array.init n (fun i -> if i land 512 = 0 then 0.0 else 1.0))
      ~slot:1.0
  in
  let block = 16 in
  let s = Shuffle.external_shuffle (rng ()) t ~block in
  let acf =
    Lrd_stats.Autocorr.autocorrelation s.Trace.rates ~max_lag:(8 * block)
  in
  (* Beyond the block length correlation should be near zero; the square
     wave's raw correlation at these lags is near 1. *)
  Alcotest.(check bool) "beyond block" true (Float.abs acf.(4 * block) < 0.1);
  Alcotest.(check bool) "within block stays" true (acf.(4) > 0.5)

let test_internal_shuffle_preserves_block_order () =
  let t = Trace.create ~rates:(Array.init 100 float_of_int) ~slot:1.0 in
  let s = Shuffle.internal_shuffle (rng ()) t ~block:10 in
  Alcotest.(check int) "length kept" 100 (Trace.length s);
  (* Each aligned block holds the same multiset as the original block. *)
  for b = 0 to 9 do
    let orig = Array.sub t.Trace.rates (b * 10) 10 in
    let shuf = Array.sub s.Trace.rates (b * 10) 10 in
    Alcotest.(check bool) "block multiset" true
      (sorted_copy orig = sorted_copy shuf)
  done

(* ------------------------------------------------------------------ *)
(* Histogram, epochs *)

let test_histogram_counts () =
  let t = Trace.create ~rates:[| 0.0; 0.1; 0.9; 1.0; 1.0 |] ~slot:1.0 in
  let h = Histogram.of_trace ~bins:2 t in
  Alcotest.(check int) "low bin" 2 h.Histogram.counts.(0);
  Alcotest.(check int) "high bin" 3 h.Histogram.counts.(1)

let test_histogram_marginal_preserves_mean () =
  let r = rng () in
  let rates = Array.init 5_000 (fun _ -> Lrd_rng.Rng.float r *. 7.0) in
  let t = Trace.create ~rates ~slot:0.01 in
  let m = Histogram.marginal_of_trace ~bins:50 t in
  check_close ~eps:1e-12 "mean preserved" (Trace.mean t)
    (Lrd_dist.Marginal.mean m);
  Alcotest.(check bool) "at most 50 atoms" true (Lrd_dist.Marginal.size m <= 50)

let test_histogram_bin_index_clamps () =
  let t = Trace.create ~rates:[| 0.0; 1.0 |] ~slot:1.0 in
  let h = Histogram.of_trace ~bins:4 t in
  Alcotest.(check int) "below" 0 (Histogram.bin_index h (-5.0));
  Alcotest.(check int) "above" 3 (Histogram.bin_index h 42.0)

let test_epoch_run_lengths () =
  (* Rates 0 0 0 5 5 9: runs of 3, 2, 1 with 10 bins over [0, 9]. *)
  let t = Trace.create ~rates:[| 0.0; 0.0; 0.0; 5.0; 5.0; 9.0 |] ~slot:0.5 in
  let h = Histogram.of_trace ~bins:10 t in
  let runs = Epochs.run_lengths h t in
  Alcotest.(check (array int)) "runs" [| 3; 2; 1 |] runs;
  check_close "mean run" 2.0 (Epochs.mean_run_length h t);
  check_close "mean epoch" 1.0 (Epochs.mean_epoch_duration ~bins:10 t)

(* The mean epoch counts runs instead of listing them: beyond its
   50-bin histogram, a call allocates nothing per sample, so the minor
   words match at 4096 and 65536 samples. *)
let test_mean_epoch_allocation_flat () =
  let words n =
    let rates = Array.init n (fun i -> float_of_int ((i * 7919) mod 13)) in
    let t = Trace.create ~rates ~slot:0.01 in
    let before = Gc.minor_words () in
    ignore (Epochs.mean_epoch_duration ~bins:50 t);
    Gc.minor_words () -. before
  in
  ignore (words 4096);
  let small = words 4096 and large = words 65536 in
  if Float.abs (large -. small) > 16.0 then
    Alcotest.failf
      "minor words grow with the trace: %.0f at 4096 samples, %.0f at 65536"
      small large

let test_epoch_single_run () =
  let t = Trace.create ~rates:[| 2.0; 2.0; 2.0 |] ~slot:1.0 in
  check_close "whole trace" 3.0 (Epochs.mean_epoch_duration ~bins:5 t)

(* ------------------------------------------------------------------ *)
(* Synthetic traces *)

let test_video_trace_properties () =
  let t = Video.generate_short (rng ()) ~n:16_384 in
  Alcotest.(check int) "length" 16_384 (Trace.length t);
  check_close ~eps:0.05 "mean" 9.5222 (Trace.mean t);
  Alcotest.(check bool) "nonnegative" true
    (Array.for_all (fun r -> r >= 0.0) t.Trace.rates);
  (* The trace must show substantial positive short-lag correlation. *)
  let acf = Lrd_stats.Autocorr.autocorrelation t.Trace.rates ~max_lag:10 in
  Alcotest.(check bool) "lag-1 correlated" true (acf.(1) > 0.5)

let test_video_fgn_variant () =
  let params = { Video.mtv_like with frames = 8192 } in
  let t = Video.generate_fgn ~params (rng ()) in
  check_close ~eps:0.05 "mean" 9.5222 (Trace.mean t);
  check_close ~eps:0.2 "cv"
    (9.5222 *. 0.18)
    (Trace.std t)

let test_ethernet_trace_properties () =
  let t = Ethernet.generate_short (rng ()) ~n:20_000 in
  Alcotest.(check int) "length" 20_000 (Trace.length t);
  (* Expected mean: 30 sources x 1 Mb/s x 5% duty = 1.5. *)
  check_close ~eps:0.15 "mean" 1.5 (Trace.mean t);
  Alcotest.(check bool) "peak below aggregate" true (Trace.peak t <= 30.0)

(* ------------------------------------------------------------------ *)
(* FARIMA *)

let test_farima_autocorrelation_closed_form () =
  (* d = 0: white noise. *)
  check_close "white lag 1" 0.0 (Farima.autocorrelation ~d:0.0 1);
  (* rho(1) = d / (1 - d). *)
  check_close ~eps:1e-12 "lag 1" (0.3 /. 0.7) (Farima.autocorrelation ~d:0.3 1);
  (* Ratio recurrence at lag 2: rho(2) = rho(1) (1 + d)/(2 - d). *)
  check_close ~eps:1e-12 "lag 2"
    (0.3 /. 0.7 *. 1.3 /. 1.7)
    (Farima.autocorrelation ~d:0.3 2);
  check_close "symmetric" (Farima.autocorrelation ~d:0.3 5)
    (Farima.autocorrelation ~d:0.3 (-5))

let test_farima_variance () =
  check_close ~eps:1e-12 "d=0" 1.0 (Farima.variance ~d:0.0);
  (* Gamma(1-2d)/Gamma(1-d)^2 at d = 0.25: Gamma(.5)/Gamma(.75)^2. *)
  let expected =
    exp
      (Lrd_numerics.Special.log_gamma 0.5
      -. (2.0 *. Lrd_numerics.Special.log_gamma 0.75))
  in
  check_close ~eps:1e-12 "d=0.25" expected (Farima.variance ~d:0.25)

let test_farima_generation_statistics () =
  let d = 0.25 in
  let xs = Farima.generate (rng ()) ~d ~n:65_536 in
  check_close ~eps:0.1 "variance" (Farima.variance ~d)
    (Lrd_numerics.Array_ops.variance xs);
  (* Empirical acf at small lags matches the closed form. *)
  let acf = Lrd_stats.Autocorr.autocorrelation xs ~max_lag:4 in
  List.iter
    (fun k ->
      check_close ~eps:0.05
        (Printf.sprintf "acf %d" k)
        (Farima.autocorrelation ~d k)
        acf.(k))
    [ 1; 2; 4 ]

let test_farima_whittle_recovers_memory () =
  let d = 0.35 in
  let xs = Farima.generate (rng ()) ~d ~n:65_536 in
  let est = (Lrd_stats.Whittle.local_whittle xs).Lrd_stats.Whittle.memory in
  check_close ~eps:0.15 "memory" d est

let test_farima_rejects_bad_d () =
  Alcotest.check_raises "d too big"
    (Invalid_argument "Farima: d must lie in [0, 0.5)") (fun () ->
      ignore (Farima.generate (rng ()) ~d:0.5 ~n:16))

(* ------------------------------------------------------------------ *)
(* M/G/infinity *)

let test_mginf_mean_rate () =
  let params =
    {
      Mginf.arrival_rate = 40.0;
      mean_duration = 0.5;
      alpha = 1.6;
      rate_per_session = 0.2;
    }
  in
  check_close "expected mean" 4.0 (Mginf.mean_rate params);
  let t = Mginf.generate ~params (rng ()) ~slots:50_000 ~slot:0.02 in
  check_close ~eps:0.1 "empirical mean" 4.0 (Trace.mean t)

let test_mginf_hurst_mapping () =
  check_close "H of alpha 1.4" 0.8
    (Mginf.hurst { Mginf.default with alpha = 1.4 });
  check_close "H of alpha 1.8" 0.6
    (Mginf.hurst { Mginf.default with alpha = 1.8 })

let test_mginf_stationary_start () =
  (* The equilibrium initialization means the first and second halves of
     the trace have comparable means (no warm-up ramp). *)
  let t = Mginf.generate (rng ()) ~slots:40_000 ~slot:0.02 in
  let n = Trace.length t in
  let first = Trace.mean (Trace.sub t ~pos:0 ~len:(n / 2)) in
  let second = Trace.mean (Trace.sub t ~pos:(n / 2) ~len:(n / 2)) in
  (* LRD sample means wander; just exclude a systematic ramp. *)
  if first < 0.5 *. second then
    Alcotest.failf "warm-up ramp: %.3g vs %.3g" first second

let test_mginf_is_lrd () =
  let t = Mginf.generate (rng ()) ~slots:65_536 ~slot:0.02 in
  let h = (Lrd_stats.Hurst.aggregated_variance t.Trace.rates).hurst in
  Alcotest.(check bool) "H well above 0.5" true (h > 0.65)

let test_mginf_rejects_bad_params () =
  Alcotest.check_raises "alpha"
    (Invalid_argument "Mginf.generate: alpha must exceed 1") (fun () ->
      ignore
        (Mginf.generate
           ~params:{ Mginf.default with alpha = 1.0 }
           (rng ()) ~slots:10 ~slot:0.1))

(* ------------------------------------------------------------------ *)
(* I/O *)

let test_io_roundtrip () =
  let t = Video.generate_short (rng ()) ~n:64 in
  let path = Filename.temp_file "lrd_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save t ~path;
      let back = Trace_io.load ~path in
      check_close "slot" t.Trace.slot back.Trace.slot;
      Alcotest.(check int) "length" (Trace.length t) (Trace.length back);
      Array.iteri
        (fun i r -> check_close ~eps:1e-15 "rate" r back.Trace.rates.(i))
        t.Trace.rates)

let test_io_rejects_missing_header () =
  let path = Filename.temp_file "lrd_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "1.0\n2.0\n";
      close_out oc;
      Alcotest.check_raises "missing header"
        (Failure "Trace_io.load: missing slot header") (fun () ->
          ignore (Trace_io.load ~path)))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"external shuffle preserves the rate multiset"
    ~count:50
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 10 200) (float_range 0.0 10.0))
           (int_range 1 20)))
    (fun (rates, block) ->
      let t = Trace.create ~rates:(Array.of_list rates) ~slot:1.0 in
      let s = Shuffle.external_shuffle (rng ()) t ~block in
      (* The shuffle keeps exactly the leading whole blocks. *)
      let kept = Array.sub t.Trace.rates 0 (Trace.length s) in
      sorted_copy s.Trace.rates = sorted_copy kept)

let prop_fgn_plan_matches_davies_harte =
  (* Across the whole (hurst, n) parameter space, planned draws are the
     one-shot generator's draws, bit for bit, including odd n (where the
     embedding rounds up) and n = 1. *)
  QCheck.Test.make ~name:"Fgn.Plan draws are bitwise davies_harte draws"
    ~count:40
    (QCheck.make
       QCheck.Gen.(pair (float_range 0.05 0.95) (int_range 1 300)))
    (fun (hurst, n) ->
      let reference = Fgn.davies_harte (rng ()) ~hurst ~n in
      let plan = Fgn.Plan.make ~hurst ~n in
      reference = Fgn.Plan.generate plan (rng ())
      && reference = Fgn.Plan.generate plan (rng ()))

let prop_farima_plan_matches_generate =
  QCheck.Test.make ~name:"Farima.Plan draws are bitwise generate draws"
    ~count:25
    (QCheck.make
       QCheck.Gen.(pair (float_range 0.0 0.45) (int_range 1 300)))
    (fun (d, n) ->
      let reference = Farima.generate (rng ()) ~d ~n in
      let plan = Farima.Plan.make ~d ~n in
      reference = Farima.Plan.generate plan (rng ())
      && reference = Farima.Plan.generate plan (rng ()))

let prop_histogram_mass_one =
  QCheck.Test.make ~name:"histogram marginal probabilities sum to 1" ~count:50
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 500) (float_range 0.0 100.0)))
    (fun rates ->
      let t = Trace.create ~rates:(Array.of_list rates) ~slot:1.0 in
      let m = Histogram.marginal_of_trace ~bins:17 t in
      Float.abs (Lrd_numerics.Array_ops.sum (Lrd_dist.Marginal.probs m) -. 1.0)
      < 1e-9)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "stats" `Quick test_trace_stats;
          Alcotest.test_case "scale to mean" `Quick test_trace_scale_to_mean;
          Alcotest.test_case "sub" `Quick test_trace_sub;
          Alcotest.test_case "aggregate" `Quick test_trace_aggregate;
          Alcotest.test_case "resample conserves work" `Quick
            test_trace_resample_conserves_work;
          Alcotest.test_case "resample identity and upsampling" `Quick
            test_trace_resample_identity;
          Alcotest.test_case "aggregate variance-time" `Slow
            test_trace_aggregate_variance_time;
          Alcotest.test_case "rejects bad input" `Quick
            test_trace_rejects_bad_input;
        ] );
      ( "fgn",
        [
          Alcotest.test_case "autocovariance function" `Quick
            test_fgn_autocovariance_function;
          Alcotest.test_case "davies-harte covariance" `Slow
            test_davies_harte_covariance_structure;
          Alcotest.test_case "hosking statistics" `Slow
            test_hosking_matches_davies_harte_statistics;
          Alcotest.test_case "plan bit-identical" `Quick
            test_fgn_plan_bit_identical;
          Alcotest.test_case "generators match target acv" `Slow
            test_generators_match_target_autocovariance;
          Alcotest.test_case "rejects bad hurst" `Quick
            test_fgn_rejects_bad_hurst;
        ] );
      ( "onoff",
        [
          Alcotest.test_case "mean rate" `Slow test_onoff_mean_rate;
          Alcotest.test_case "bounded by peak" `Quick
            test_onoff_rate_bounded_by_aggregate_peak;
          Alcotest.test_case "duty cycle" `Quick test_onoff_work_conservation;
          Alcotest.test_case "rejects bad input" `Quick
            test_onoff_rejects_bad_input;
        ] );
      ( "shuffle",
        [
          Alcotest.test_case "external preserves marginal" `Quick
            test_external_shuffle_preserves_marginal;
          Alcotest.test_case "external preserves blocks" `Quick
            test_external_shuffle_preserves_blocks;
          Alcotest.test_case "external truncates partial block" `Quick
            test_external_shuffle_truncates_partial_block;
          Alcotest.test_case "external kills long correlation" `Quick
            test_external_shuffle_kills_long_correlation;
          Alcotest.test_case "internal preserves block order" `Quick
            test_internal_shuffle_preserves_block_order;
        ] );
      ( "histogram-epochs",
        [
          Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
          Alcotest.test_case "marginal preserves mean" `Quick
            test_histogram_marginal_preserves_mean;
          Alcotest.test_case "bin index clamps" `Quick
            test_histogram_bin_index_clamps;
          Alcotest.test_case "epoch run lengths" `Quick test_epoch_run_lengths;
          Alcotest.test_case "single run" `Quick test_epoch_single_run;
          Alcotest.test_case "mean epoch allocation flat" `Quick
            test_mean_epoch_allocation_flat;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "video trace" `Slow test_video_trace_properties;
          Alcotest.test_case "video fGn variant" `Slow test_video_fgn_variant;
          Alcotest.test_case "ethernet trace" `Slow
            test_ethernet_trace_properties;
        ] );
      ( "farima",
        [
          Alcotest.test_case "acf closed form" `Quick
            test_farima_autocorrelation_closed_form;
          Alcotest.test_case "variance" `Quick test_farima_variance;
          Alcotest.test_case "generation statistics" `Slow
            test_farima_generation_statistics;
          Alcotest.test_case "whittle recovers d" `Slow
            test_farima_whittle_recovers_memory;
          Alcotest.test_case "rejects bad d" `Quick test_farima_rejects_bad_d;
        ] );
      ( "mginf",
        [
          Alcotest.test_case "mean rate" `Slow test_mginf_mean_rate;
          Alcotest.test_case "hurst mapping" `Quick test_mginf_hurst_mapping;
          Alcotest.test_case "stationary start" `Slow
            test_mginf_stationary_start;
          Alcotest.test_case "long-range dependent" `Slow test_mginf_is_lrd;
          Alcotest.test_case "rejects bad params" `Quick
            test_mginf_rejects_bad_params;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "rejects missing header" `Quick
            test_io_rejects_missing_header;
        ] );
      ( "properties",
        qcheck
          [
            prop_shuffle_preserves_multiset;
            prop_fgn_plan_matches_davies_harte;
            prop_farima_plan_matches_generate;
            prop_histogram_mass_one;
          ] );
    ]
