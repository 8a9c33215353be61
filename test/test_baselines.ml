open Lrd_baselines

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let rng () = Lrd_rng.Rng.create ~seed:161803L
let marginal = Lrd_dist.Marginal.of_points [ (1.0, 0.3); (2.0, 0.5); (5.0, 0.2) ]

(* ------------------------------------------------------------------ *)
(* DAR(1) *)

let test_dar_acf_geometric () =
  let d = Dar.create ~marginal ~rho:0.6 in
  check_close "lag 0" 1.0 (Dar.autocorrelation d ~lag:0);
  check_close "lag 1" 0.6 (Dar.autocorrelation d ~lag:1);
  check_close "lag 3" (0.6 ** 3.0) (Dar.autocorrelation d ~lag:3);
  check_close "negative lag" 0.36 (Dar.autocorrelation d ~lag:(-2))

let test_dar_trace_marginal () =
  let d = Dar.create ~marginal ~rho:0.7 in
  let t = Dar.generate d (rng ()) ~slots:200_000 ~slot:0.1 in
  check_close ~eps:0.02 "mean" (Lrd_dist.Marginal.mean marginal)
    (Lrd_trace.Trace.mean t);
  check_close ~eps:0.05 "variance" (Lrd_dist.Marginal.variance marginal)
    (Lrd_trace.Trace.variance t)

let test_dar_trace_acf_matches () =
  let d = Dar.create ~marginal ~rho:0.7 in
  let t = Dar.generate d (rng ()) ~slots:200_000 ~slot:0.1 in
  let acf =
    Lrd_stats.Autocorr.autocorrelation t.Lrd_trace.Trace.rates ~max_lag:4
  in
  List.iter
    (fun k ->
      check_close ~eps:0.03
        (Printf.sprintf "lag %d" k)
        (0.7 ** float_of_int k)
        acf.(k))
    [ 1; 2; 3; 4 ]

let test_dar_rejects_bad_rho () =
  Alcotest.check_raises "rho 1" (Invalid_argument "Dar.create: rho must lie in [0, 1)")
    (fun () -> ignore (Dar.create ~marginal ~rho:1.0))

(* ------------------------------------------------------------------ *)
(* Markov chain *)

let test_chain_validation () =
  Alcotest.check_raises "not stochastic"
    (Invalid_argument "Markov_chain.create: rows must sum to one") (fun () ->
      ignore
        (Markov_chain.create ~rates:[| 1.0; 2.0 |]
           ~transition:[| [| 0.5; 0.4 |]; [| 0.5; 0.5 |] |]));
  Alcotest.check_raises "dimension"
    (Invalid_argument "Markov_chain.create: transition matrix dimension mismatch")
    (fun () ->
      ignore
        (Markov_chain.create ~rates:[| 1.0 |] ~transition:[| [| 1.0 |]; [| 1.0 |] |]))

let test_chain_two_state_exact () =
  (* Symmetric two-state chain: eigenvalue 2s - 1. *)
  let chain =
    Markov_chain.create ~rates:[| 0.0; 1.0 |]
      ~transition:[| [| 0.9; 0.1 |]; [| 0.1; 0.9 |] |]
  in
  let pi = Markov_chain.stationary chain in
  check_close ~eps:1e-9 "uniform stationary" 0.5 pi.(0);
  check_close ~eps:1e-9 "acf lag 1" 0.8
    (Markov_chain.autocorrelation chain ~lag:1);
  check_close ~eps:1e-9 "acf lag 3" (0.8 ** 3.0)
    (Markov_chain.autocorrelation chain ~lag:3)

let test_chain_fit_from_trace () =
  (* Fit the bin chain to a DAR(1) trace: the fitted lag-1 rate
     autocorrelation and marginal must match the source's. *)
  let d = Dar.create ~marginal ~rho:0.6 in
  let t = Dar.generate d (rng ()) ~slots:200_000 ~slot:0.1 in
  let chain = Markov_chain.fit_from_trace ~bins:20 t in
  check_close ~eps:0.01 "mean rate" (Lrd_trace.Trace.mean t)
    (Markov_chain.mean_rate chain);
  check_close ~eps:0.03 "variance" (Lrd_trace.Trace.variance t)
    (Markov_chain.rate_variance chain);
  check_close ~eps:0.03 "lag-1 acf" 0.6
    (Markov_chain.autocorrelation chain ~lag:1)

let test_chain_fit_handles_terminal_state () =
  (* A trace whose last sample is the only visit to its bin: the fitted
     chain must still be row-stochastic (self-loop added). *)
  let rates = [| 1.0; 1.0; 1.0; 1.0; 10.0 |] in
  let t = Lrd_trace.Trace.create ~rates ~slot:1.0 in
  let chain = Markov_chain.fit_from_trace ~bins:5 t in
  Alcotest.(check int) "two states" 2 (Markov_chain.size chain);
  let p = Markov_chain.transition chain in
  Array.iter
    (fun row ->
      check_close ~eps:1e-12 "stochastic" 1.0
        (Lrd_numerics.Array_ops.sum row))
    p

let test_chain_generation_stationary () =
  (* Every row is the marginal: i.i.d. draws from it. *)
  let chain =
    Markov_chain.create ~rates:(Lrd_dist.Marginal.rates marginal)
      ~transition:(Array.make 3 (Lrd_dist.Marginal.probs marginal))
  in
  let t = Markov_chain.generate chain (rng ()) ~slots:100_000 ~slot:1.0 in
  check_close ~eps:0.03 "mean" (Lrd_dist.Marginal.mean marginal)
    (Lrd_trace.Trace.mean t)

(* ------------------------------------------------------------------ *)
(* Multiscale *)

let test_multiscale_acf_mixture () =
  let m =
    Multiscale.create ~base_rate:0.0
      ~layers:
        [|
          { Multiscale.rate = 2.0; eigenvalue = 0.5 };
          { Multiscale.rate = 2.0; eigenvalue = 0.9 };
        |]
  in
  check_close "lag 0" 1.0 (Multiscale.autocorrelation m ~lag:0);
  check_close "lag 1" ((0.5 +. 0.9) /. 2.0) (Multiscale.autocorrelation m ~lag:1);
  check_close "lag 2" (((0.5 ** 2.0) +. (0.9 ** 2.0)) /. 2.0)
    (Multiscale.autocorrelation m ~lag:2)

let test_multiscale_fit_matches_target_moments () =
  let m =
    Multiscale.fit_power_law ~mean:10.0 ~variance:4.0 ~hurst:0.8 ~horizon:1000
      ()
  in
  (* The mean holds by construction (the base rate takes up the rest);
     the layers must carry the whole variance, rate^2 / 4 each. *)
  let variance =
    Array.fold_left
      (fun acc l -> acc +. (l.Multiscale.rate *. l.Multiscale.rate /. 4.0))
      0.0 (Multiscale.layers m)
  in
  check_close ~eps:1e-9 "variance" 4.0 variance

let test_multiscale_fit_tracks_power_law () =
  let hurst = 0.8 in
  let m =
    Multiscale.fit_power_law ~mean:10.0 ~variance:4.0 ~hurst ~horizon:1000
      ~layers:6 ()
  in
  (* Across the fitted range the acf should track t^(2H-2) within a
     small factor. *)
  List.iter
    (fun lag ->
      let target = float_of_int lag ** ((2.0 *. hurst) -. 2.0) in
      let got = Multiscale.autocorrelation m ~lag in
      let ratio = got /. target in
      if ratio < 0.3 || ratio > 3.0 then
        Alcotest.failf "acf at %d: got %.4f, target %.4f" lag got target)
    [ 3; 10; 30; 100; 300 ]

let test_multiscale_fit_rejects_excess_variance () =
  Alcotest.check_raises "negative base"
    (Invalid_argument
       "Multiscale.fit_power_law: variance too large for the mean (negative \
        base rate)") (fun () ->
      ignore
        (Multiscale.fit_power_law ~mean:0.5 ~variance:100.0 ~hurst:0.8
           ~horizon:100 ()))

let test_multiscale_generation_moments () =
  let m =
    Multiscale.fit_power_law ~mean:5.0 ~variance:1.0 ~hurst:0.75 ~horizon:200
      ()
  in
  let t = Multiscale.generate m (rng ()) ~slots:400_000 ~slot:1.0 in
  check_close ~eps:0.05 "mean" 5.0 (Lrd_trace.Trace.mean t);
  check_close ~eps:0.15 "variance" 1.0 (Lrd_trace.Trace.variance t)

(* ------------------------------------------------------------------ *)
(* Anick-Mitra-Sondhi *)

let ams_system () =
  Ams.create ~sources:4 ~on_rate:1.0 ~lambda:1.0 ~mu:2.0 ~service_rate:1.9

let test_ams_validation () =
  Alcotest.check_raises "unstable"
    (Invalid_argument "Ams.create: unstable system (mean rate >= service rate)")
    (fun () ->
      ignore
        (Ams.create ~sources:4 ~on_rate:1.0 ~lambda:1.0 ~mu:2.0
           ~service_rate:1.2));
  Alcotest.check_raises "zero drift"
    (Invalid_argument "Ams.create: a state has exactly zero drift") (fun () ->
      ignore
        (Ams.create ~sources:4 ~on_rate:1.0 ~lambda:1.0 ~mu:2.0
           ~service_rate:2.0));
  Alcotest.check_raises "always empty"
    (Invalid_argument
       "Ams.create: peak rate below service rate (queue always empty)")
    (fun () ->
      ignore
        (Ams.create ~sources:4 ~on_rate:1.0 ~lambda:1.0 ~mu:20.0
           ~service_rate:4.5))

let test_ams_stationary_binomial () =
  let sys = ams_system () in
  let pi = Ams.stationary sys in
  check_close ~eps:1e-12 "mass" 1.0 (Lrd_numerics.Array_ops.sum pi);
  (* p = 1/3: P(j) = C(4,j) (1/3)^j (2/3)^(4-j). *)
  check_close ~eps:1e-12 "pi_0" ((2.0 /. 3.0) ** 4.0) pi.(0);
  check_close ~eps:1e-12 "pi_4" ((1.0 /. 3.0) ** 4.0) pi.(4);
  check_close ~eps:1e-12 "mean" (4.0 /. 3.0) (Ams.mean_rate sys)

let test_ams_eigenvalue_count_and_sign () =
  let sys = ams_system () in
  let zs = Ams.negative_eigenvalues sys in
  (* Up states: j with j > 1.9, i.e. j = 2, 3, 4. *)
  Alcotest.(check int) "count" 3 (Array.length zs);
  Array.iter
    (fun z -> if z >= 0.0 then Alcotest.failf "nonnegative eigenvalue %g" z)
    zs

let test_ams_single_source_closed_form () =
  (* N = 1: the only nonzero eigenvalue of the pencil is
     z* = (lambda (r - c) - c mu) / (c (r - c)). *)
  let lambda = 1.0 and mu = 3.0 and r = 1.0 and c = 0.4 in
  let sys =
    Ams.create ~sources:1 ~on_rate:r ~lambda ~mu ~service_rate:c
  in
  let zs = Ams.negative_eigenvalues sys in
  Alcotest.(check int) "one eigenvalue" 1 (Array.length zs);
  let expected = ((lambda *. (r -. c)) -. (c *. mu)) /. (c *. (r -. c)) in
  check_close ~eps:1e-8 "closed form" expected zs.(0)

let test_ams_overflow_monotone () =
  let sys = ams_system () in
  let prev = ref 1.1 in
  List.iter
    (fun level ->
      let p = Ams.overflow_probability sys ~level in
      if p > !prev +. 1e-12 then Alcotest.failf "not monotone at %g" level;
      if p < 0.0 || p > 1.0 then Alcotest.failf "out of range at %g" level;
      prev := p)
    [ 0.0; 0.2; 0.5; 1.0; 2.0; 5.0; 10.0 ]

let test_ams_matches_time_weighted_simulation () =
  let sys = ams_system () in
  let service_rate = 1.9 in
  let rng = rng () in
  let epochs = Ams.sample_epochs sys rng ~n:1_000_000 in
  let sim =
    Lrd_fluidsim.Queue_sim.make ~service_rate ~buffer:1e9 ()
  in
  let levels = [| 0.5; 1.0; 2.0 |] in
  let above = Array.make 3 0.0 in
  let total = ref 0.0 in
  Array.iter
    (fun (rate, duration) ->
      let initial = Lrd_fluidsim.Queue_sim.occupancy sim in
      ignore (Lrd_fluidsim.Queue_sim.offer sim ~rate ~duration);
      total := !total +. duration;
      Array.iteri
        (fun i level ->
          above.(i) <-
            above.(i)
            +. Lrd_fluidsim.Queue_sim.epoch_time_above ~service_rate ~initial
                 ~rate ~duration ~level)
        levels)
    epochs;
  Array.iteri
    (fun i level ->
      check_close ~eps:0.05
        (Printf.sprintf "level %g" level)
        (Ams.overflow_probability sys ~level)
        (above.(i) /. !total))
    levels

let test_ams_all_eigenvalues_structure () =
  let sys = ams_system () in
  let zs = Ams.all_eigenvalues sys in
  (* N + 1 = 5 eigenvalues: 3 negative (up states 2, 3, 4), zero, one
     positive (down states 0, 1 minus one for zero). *)
  Alcotest.(check int) "count" 5 (Array.length zs);
  let negatives = Array.to_list zs |> List.filter (fun z -> z < 0.0) in
  let positives = Array.to_list zs |> List.filter (fun z -> z > 0.0) in
  Alcotest.(check int) "negatives" 3 (List.length negatives);
  Alcotest.(check int) "positives" 1 (List.length positives);
  Alcotest.(check bool) "has zero" true (Array.exists (fun z -> z = 0.0) zs);
  (* Sorted ascending. *)
  let sorted = Array.copy zs in
  Array.sort Float.compare sorted;
  Alcotest.(check bool) "sorted" true (zs = sorted)

let test_ams_finite_loss_decreasing_and_bounded () =
  let sys = ams_system () in
  let prev = ref 1.0 in
  List.iter
    (fun b ->
      let loss = Ams.finite_buffer_loss sys ~buffer:b in
      let overflow = Ams.overflow_probability sys ~level:b in
      if loss > !prev +. 1e-12 then Alcotest.failf "loss grew at B=%g" b;
      (* Footnote 2: infinite-buffer overflow bounds finite-buffer loss. *)
      if loss > overflow +. 1e-12 then
        Alcotest.failf "loss above overflow at B=%g" b;
      prev := loss)
    [ 0.1; 0.25; 0.5; 1.0; 2.0; 4.0 ]

let test_ams_finite_loss_zero_buffer_limit () =
  (* As B -> 0 the loss tends to E[(rate - c)^+] / mean rate. *)
  let sys = ams_system () in
  let pi = Ams.stationary sys in
  let c = 1.9 in
  let expected =
    let acc = ref 0.0 in
    Array.iteri
      (fun j p -> acc := !acc +. (p *. Float.max 0.0 (float_of_int j -. c)))
      pi;
    !acc /. Ams.mean_rate sys
  in
  check_close ~eps:1e-3 "limit" expected
    (Ams.finite_buffer_loss sys ~buffer:1e-6)

let test_ams_finite_loss_matches_simulation () =
  let sys = ams_system () in
  let c = 1.9 in
  let rng = rng () in
  List.iter
    (fun buffer ->
      let exact = Ams.finite_buffer_loss sys ~buffer in
      let path = Ams.sample_epochs sys rng ~n:1_000_000 in
      let sim = Lrd_fluidsim.Queue_sim.make ~service_rate:c ~buffer () in
      let stats =
        Lrd_fluidsim.Queue_sim.run_epochs sim (Array.to_seq path)
      in
      check_close ~eps:0.05
        (Printf.sprintf "B=%g" buffer)
        (Lrd_fluidsim.Queue_sim.loss_rate stats)
        exact)
    [ 0.5; 2.0 ]

let test_ams_sample_epochs_statistics () =
  let sys = ams_system () in
  let rng = rng () in
  let epochs = Ams.sample_epochs sys rng ~n:200_000 in
  (* Time-weighted mean rate equals the stationary mean. *)
  let work = ref 0.0 and time = ref 0.0 in
  Array.iter
    (fun (rate, duration) ->
      work := !work +. (rate *. duration);
      time := !time +. duration)
    epochs;
  check_close ~eps:0.03 "mean rate" (Ams.mean_rate sys) (!work /. !time);
  (* Rates live on the lattice {0, 1, 2, 3, 4}. *)
  Array.iter
    (fun (rate, _) ->
      if Float.rem rate 1.0 <> 0.0 || rate < 0.0 || rate > 4.0 then
        Alcotest.failf "rate off lattice: %g" rate)
    epochs

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_dar_trace_in_support =
  QCheck.Test.make ~name:"DAR trace only emits marginal rates" ~count:30
    (QCheck.make QCheck.Gen.(float_range 0.0 0.95))
    (fun rho ->
      let d = Dar.create ~marginal ~rho in
      let t = Dar.generate d (rng ()) ~slots:500 ~slot:1.0 in
      Array.for_all
        (fun r -> r = 1.0 || r = 2.0 || r = 5.0)
        t.Lrd_trace.Trace.rates)

let prop_multiscale_acf_in_unit_interval =
  QCheck.Test.make ~name:"multiscale acf lies in [0, 1]" ~count:50
    (QCheck.make
       QCheck.Gen.(
         pair (float_range 0.55 0.95) (int_range 10 1000)))
    (fun (hurst, horizon) ->
      let m =
        Multiscale.fit_power_law ~mean:10.0 ~variance:2.0 ~hurst
          ~horizon:(max 2 horizon) ()
      in
      List.for_all
        (fun lag ->
          let v = Multiscale.autocorrelation m ~lag in
          v >= 0.0 && v <= 1.0 +. 1e-12)
        [ 0; 1; 5; 50; 500 ])

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "baselines"
    [
      ( "dar",
        [
          Alcotest.test_case "geometric acf" `Quick test_dar_acf_geometric;
          Alcotest.test_case "trace marginal" `Slow test_dar_trace_marginal;
          Alcotest.test_case "trace acf" `Slow test_dar_trace_acf_matches;
          Alcotest.test_case "rejects bad rho" `Quick test_dar_rejects_bad_rho;
        ] );
      ( "markov-chain",
        [
          Alcotest.test_case "validation" `Quick test_chain_validation;
          Alcotest.test_case "two-state exact" `Quick test_chain_two_state_exact;
          Alcotest.test_case "fit from trace" `Slow test_chain_fit_from_trace;
          Alcotest.test_case "fit handles terminal state" `Quick
            test_chain_fit_handles_terminal_state;
          Alcotest.test_case "generation stationary" `Slow
            test_chain_generation_stationary;
        ] );
      ( "multiscale",
        [
          Alcotest.test_case "acf mixture of geometrics" `Quick
            test_multiscale_acf_mixture;
          Alcotest.test_case "fit matches moments" `Quick
            test_multiscale_fit_matches_target_moments;
          Alcotest.test_case "fit tracks power law" `Quick
            test_multiscale_fit_tracks_power_law;
          Alcotest.test_case "fit rejects excess variance" `Quick
            test_multiscale_fit_rejects_excess_variance;
          Alcotest.test_case "generation moments" `Slow
            test_multiscale_generation_moments;
        ] );
      ( "ams",
        [
          Alcotest.test_case "validation" `Quick test_ams_validation;
          Alcotest.test_case "binomial stationary" `Quick
            test_ams_stationary_binomial;
          Alcotest.test_case "eigenvalue count and sign" `Quick
            test_ams_eigenvalue_count_and_sign;
          Alcotest.test_case "single-source closed form" `Quick
            test_ams_single_source_closed_form;
          Alcotest.test_case "overflow monotone" `Quick
            test_ams_overflow_monotone;
          Alcotest.test_case "matches time-weighted simulation" `Slow
            test_ams_matches_time_weighted_simulation;
          Alcotest.test_case "full spectrum structure" `Quick
            test_ams_all_eigenvalues_structure;
          Alcotest.test_case "finite loss decreasing and bounded" `Quick
            test_ams_finite_loss_decreasing_and_bounded;
          Alcotest.test_case "finite loss zero-buffer limit" `Quick
            test_ams_finite_loss_zero_buffer_limit;
          Alcotest.test_case "finite loss matches simulation" `Slow
            test_ams_finite_loss_matches_simulation;
          Alcotest.test_case "sample path statistics" `Slow
            test_ams_sample_epochs_statistics;
        ] );
      ( "properties",
        qcheck [ prop_dar_trace_in_support; prop_multiscale_acf_in_unit_interval ]
      );
    ]
