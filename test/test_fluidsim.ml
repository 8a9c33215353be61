open Lrd_fluidsim

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Single-epoch arithmetic *)

let test_fill_without_overflow () =
  let s = Queue_sim.make ~service_rate:1.0 ~buffer:10.0 () in
  let lost = Queue_sim.offer s ~rate:3.0 ~duration:2.0 in
  check_close "no loss" 0.0 lost;
  check_close "occupancy" 4.0 (Queue_sim.occupancy s)

let test_fill_with_overflow () =
  let s = Queue_sim.make ~service_rate:1.0 ~buffer:3.0 () in
  (* Slope 2, fills after 1.5 s, overflows 2 * 0.5 = 1. *)
  let lost = Queue_sim.offer s ~rate:3.0 ~duration:2.0 in
  check_close "loss" 1.0 lost;
  check_close "at capacity" 3.0 (Queue_sim.occupancy s)

let test_drain_to_empty () =
  let s = Queue_sim.make ~service_rate:2.0 ~buffer:10.0 ~initial:3.0 () in
  let lost = Queue_sim.offer s ~rate:1.0 ~duration:5.0 in
  check_close "no loss" 0.0 lost;
  check_close "empty" 0.0 (Queue_sim.occupancy s)

let test_drain_partial () =
  let s = Queue_sim.make ~service_rate:2.0 ~buffer:10.0 ~initial:5.0 () in
  ignore (Queue_sim.offer s ~rate:1.0 ~duration:2.0);
  check_close "partial" 3.0 (Queue_sim.occupancy s)

let test_rate_equal_service_rate () =
  let s = Queue_sim.make ~service_rate:2.0 ~buffer:5.0 ~initial:1.0 () in
  let lost = Queue_sim.offer s ~rate:2.0 ~duration:10.0 in
  check_close "no loss" 0.0 lost;
  check_close "occupancy unchanged" 1.0 (Queue_sim.occupancy s)

let test_zero_buffer () =
  (* With B = 0 every excess of the rate over c is lost immediately. *)
  let s = Queue_sim.make ~service_rate:1.0 ~buffer:0.0 () in
  let lost = Queue_sim.offer s ~rate:4.0 ~duration:2.0 in
  check_close "all excess lost" 6.0 lost

let test_make_rejects_bad_input () =
  Alcotest.check_raises "service rate"
    (Invalid_argument "Queue_sim.make: service rate must be positive")
    (fun () -> ignore (Queue_sim.make ~service_rate:0.0 ~buffer:1.0 ()));
  Alcotest.check_raises "initial"
    (Invalid_argument "Queue_sim.make: initial occupancy outside [0, buffer]")
    (fun () ->
      ignore (Queue_sim.make ~service_rate:1.0 ~buffer:1.0 ~initial:2.0 ()))

(* ------------------------------------------------------------------ *)
(* Conservation and stats *)

let run_random_epochs ~buffer ~service_rate ~n =
  let rng = Lrd_rng.Rng.create ~seed:55L in
  let s = Queue_sim.make ~service_rate ~buffer () in
  let epochs =
    Seq.init n (fun _ ->
        (Lrd_rng.Rng.float rng *. 3.0, Lrd_rng.Rng.float rng *. 0.7))
  in
  Queue_sim.run_epochs s epochs

let test_work_conservation () =
  let stats = run_random_epochs ~buffer:2.0 ~service_rate:1.2 ~n:10_000 in
  (* arrived = served + lost + final occupancy (initial was 0). *)
  check_close ~eps:1e-9 "conservation" stats.Queue_sim.arrived
    (stats.Queue_sim.served +. stats.Queue_sim.lost
   +. stats.Queue_sim.final_occupancy)

let test_served_bounded_by_capacity () =
  let stats = run_random_epochs ~buffer:2.0 ~service_rate:1.2 ~n:10_000 in
  Alcotest.(check bool) "served <= c * T" true
    (stats.Queue_sim.served <= (1.2 *. stats.Queue_sim.duration) +. 1e-9);
  Alcotest.(check bool) "busy <= T" true
    (stats.Queue_sim.busy_time <= stats.Queue_sim.duration +. 1e-9)

let test_served_equals_busy_times_rate () =
  (* The server works at rate c exactly while busy. *)
  let stats = run_random_epochs ~buffer:1.0 ~service_rate:0.9 ~n:5_000 in
  check_close ~eps:1e-6 "served = c * busy"
    (0.9 *. stats.Queue_sim.busy_time)
    stats.Queue_sim.served

let test_max_occupancy_monotone_bound () =
  let stats = run_random_epochs ~buffer:1.5 ~service_rate:1.0 ~n:2_000 in
  Alcotest.(check bool) "max <= buffer" true
    (stats.Queue_sim.max_occupancy <= 1.5 +. 1e-12);
  Alcotest.(check bool) "final <= max" true
    (stats.Queue_sim.final_occupancy <= stats.Queue_sim.max_occupancy +. 1e-12)

let test_loss_rate_and_utilization () =
  let s = Queue_sim.make ~service_rate:1.0 ~buffer:1.0 () in
  ignore (Queue_sim.offer s ~rate:2.0 ~duration:2.0);
  (* Fills after 1 s, loses 1; arrived 4, lost 1. *)
  let stats = Queue_sim.run_epochs s Seq.empty in
  check_close "loss rate" 0.25 (Queue_sim.loss_rate stats)

let test_on_off_deterministic_cycle () =
  (* Periodic on/off: rate 2 for 1 s, rate 0 for 1 s, c = 1, B = 0.4.
     Each ON: fills 0.4 in 0.4 s then overflows 0.6; each OFF drains.
     Steady-state loss = 0.6 / 2 = 0.3 per cycle. *)
  let s = Queue_sim.make ~service_rate:1.0 ~buffer:0.4 () in
  let epochs =
    Seq.concat_map
      (fun _ -> List.to_seq [ (2.0, 1.0); (0.0, 1.0) ])
      (Seq.init 1000 (fun i -> i))
  in
  let stats = Queue_sim.run_epochs s epochs in
  check_close ~eps:1e-6 "periodic loss" 0.3 (Queue_sim.loss_rate stats)

(* ------------------------------------------------------------------ *)
(* Trace-driven runs *)

let test_run_trace_equals_run_epochs () =
  let rng = Lrd_rng.Rng.create ~seed:77L in
  let rates = Array.init 500 (fun _ -> Lrd_rng.Rng.float rng *. 2.0) in
  let trace = Lrd_trace.Trace.create ~rates ~slot:0.25 in
  let a = Queue_sim.make ~service_rate:1.0 ~buffer:1.0 () in
  let sa = Queue_sim.run_trace a trace in
  let b = Queue_sim.make ~service_rate:1.0 ~buffer:1.0 () in
  let sb =
    Queue_sim.run_epochs b (Array.to_seq rates |> Seq.map (fun r -> (r, 0.25)))
  in
  check_close "same lost" sa.Queue_sim.lost sb.Queue_sim.lost;
  check_close "same arrived" sa.Queue_sim.arrived sb.Queue_sim.arrived

let test_losses_per_slot_totals () =
  let rng = Lrd_rng.Rng.create ~seed:88L in
  let rates = Array.init 300 (fun _ -> Lrd_rng.Rng.float rng *. 3.0) in
  let trace = Lrd_trace.Trace.create ~rates ~slot:0.1 in
  let s = Queue_sim.make ~service_rate:1.0 ~buffer:0.5 () in
  let losses, stats = Queue_sim.losses_per_slot s trace in
  Alcotest.(check int) "one entry per slot" 300 (Array.length losses);
  check_close ~eps:1e-9 "losses sum to total"
    stats.Queue_sim.lost
    (Lrd_numerics.Array_ops.sum losses)

let test_occupancy_per_slot () =
  let rng = Lrd_rng.Rng.create ~seed:101L in
  let rates = Array.init 500 (fun _ -> Lrd_rng.Rng.float rng *. 3.0) in
  let trace = Lrd_trace.Trace.create ~rates ~slot:0.1 in
  let s = Queue_sim.make ~service_rate:1.0 ~buffer:0.75 () in
  let occupancies, stats = Queue_sim.occupancy_per_slot s trace in
  Alcotest.(check int) "one per slot" 500 (Array.length occupancies);
  Array.iter
    (fun q ->
      if q < 0.0 || q > 0.75 +. 1e-12 then Alcotest.failf "out of range %g" q)
    occupancies;
  check_close "final matches" stats.Queue_sim.final_occupancy
    occupancies.(499);
  (* Same totals as a plain run. *)
  let s2 = Queue_sim.make ~service_rate:1.0 ~buffer:0.75 () in
  let reference = Queue_sim.run_trace s2 trace in
  check_close "same lost" reference.Queue_sim.lost stats.Queue_sim.lost

let test_loss_monotone_in_buffer () =
  let rng = Lrd_rng.Rng.create ~seed:99L in
  let rates = Array.init 20_000 (fun _ -> Lrd_rng.Rng.float rng *. 2.4) in
  let trace = Lrd_trace.Trace.create ~rates ~slot:0.05 in
  let loss b =
    let s = Queue_sim.make ~service_rate:1.0 ~buffer:b () in
    Queue_sim.loss_rate (Queue_sim.run_trace s trace)
  in
  let prev = ref (loss 0.0) in
  List.iter
    (fun b ->
      let l = loss b in
      if l > !prev +. 1e-12 then Alcotest.failf "loss grew at B=%g" b;
      prev := l)
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

(* ------------------------------------------------------------------ *)
(* Departure process and tandems *)

let test_output_segments_cover_epoch () =
  let s = Queue_sim.make ~service_rate:1.0 ~buffer:2.0 ~initial:0.5 () in
  let _, segments = Queue_sim.offer_with_output s ~rate:0.2 ~duration:3.0 in
  (* Drains 0.5 at slope 0.8 in 0.625 s, then passes through. *)
  (match segments with
  | [ (r1, d1); (r2, d2) ] ->
      check_close "busy rate" 1.0 r1;
      check_close "drain time" 0.625 d1;
      check_close "pass rate" 0.2 r2;
      check_close "remaining" 2.375 d2
  | _ -> Alcotest.failf "expected two segments, got %d" (List.length segments));
  (* Saturated epoch: single segment at the service rate. *)
  let _, saturated = Queue_sim.offer_with_output s ~rate:5.0 ~duration:1.0 in
  match saturated with
  | [ (r, d) ] ->
      check_close "rate c" 1.0 r;
      check_close "full epoch" 1.0 d
  | _ -> Alcotest.fail "expected one segment"

let test_output_work_equals_served () =
  (* Across many random epochs, total departed work must equal the
     stage's served work. *)
  let rng = Lrd_rng.Rng.create ~seed:202L in
  let s = Queue_sim.make ~service_rate:1.0 ~buffer:1.5 () in
  let out = ref 0.0 in
  for _ = 1 to 5_000 do
    let rate = Lrd_rng.Rng.float rng *. 3.0 in
    let duration = Lrd_rng.Rng.float rng *. 0.8 in
    let _, segments = Queue_sim.offer_with_output s ~rate ~duration in
    List.iter (fun (r, d) -> out := !out +. (r *. d)) segments
  done;
  let stats = Queue_sim.stats s in
  check_close ~eps:1e-9 "output = served" stats.Queue_sim.served !out

let test_tandem_single_stage_matches_plain_queue () =
  let rng = Lrd_rng.Rng.create ~seed:203L in
  let rates = Array.init 2_000 (fun _ -> Lrd_rng.Rng.float rng *. 2.5) in
  let trace = Lrd_trace.Trace.create ~rates ~slot:0.1 in
  let tandem_stats =
    Tandem.run_trace
      ~stages:[ { Tandem.service_rate = 1.0; buffer = 0.5 } ]
      trace
  in
  let s = Queue_sim.make ~service_rate:1.0 ~buffer:0.5 () in
  let plain = Queue_sim.run_trace s trace in
  match tandem_stats with
  | [ only ] ->
      check_close "lost" plain.Queue_sim.lost only.Queue_sim.lost;
      check_close "arrived" plain.Queue_sim.arrived only.Queue_sim.arrived
  | _ -> Alcotest.fail "expected one stage"

let test_tandem_flow_conservation () =
  let rng = Lrd_rng.Rng.create ~seed:204L in
  let rates = Array.init 5_000 (fun _ -> Lrd_rng.Rng.float rng *. 3.0) in
  let trace = Lrd_trace.Trace.create ~rates ~slot:0.05 in
  let stages =
    [
      { Tandem.service_rate = 1.2; buffer = 0.4 };
      { Tandem.service_rate = 1.0; buffer = 0.3 };
    ]
  in
  match Tandem.run_trace ~stages trace with
  | [ hop1; hop2 ] ->
      (* Hop 2's arrivals are exactly hop 1's departures. *)
      check_close ~eps:1e-9 "flow conservation" hop1.Queue_sim.served
        hop2.Queue_sim.arrived;
      (* Hop 2's arrival rate never exceeds hop 1's service rate. *)
      Alcotest.(check bool) "no loss without excess" true
        (hop2.Queue_sim.lost >= 0.0)
  | _ -> Alcotest.fail "expected two stages"

let test_tandem_second_hop_lossless_at_equal_rates () =
  (* Departures from hop 1 never exceed its service rate, so an equal
     second hop cannot overflow. *)
  let rng = Lrd_rng.Rng.create ~seed:205L in
  let rates = Array.init 3_000 (fun _ -> Lrd_rng.Rng.float rng *. 4.0) in
  let trace = Lrd_trace.Trace.create ~rates ~slot:0.05 in
  let stage = { Tandem.service_rate = 1.0; buffer = 0.2 } in
  match Tandem.run_trace ~stages:[ stage; stage ] trace with
  | [ _; hop2 ] -> check_close "hop 2 lossless" 0.0 hop2.Queue_sim.lost
  | _ -> Alcotest.fail "expected two stages"

let test_tandem_end_to_end_loss () =
  let stats =
    [
      {
        Queue_sim.arrived = 10.0;
        lost = 1.0;
        served = 9.0;
        final_occupancy = 0.0;
        max_occupancy = 1.0;
        busy_time = 1.0;
        duration = 1.0;
      };
      {
        Queue_sim.arrived = 9.0;
        lost = 0.5;
        served = 8.5;
        final_occupancy = 0.0;
        max_occupancy = 1.0;
        busy_time = 1.0;
        duration = 1.0;
      };
    ]
  in
  check_close "combined" 0.15 (Tandem.end_to_end_loss stats)

let test_tandem_rejects_empty () =
  Alcotest.check_raises "no stages"
    (Invalid_argument "Tandem.run_trace: no stages") (fun () ->
      ignore
        (Tandem.run_trace ~stages:[]
           (Lrd_trace.Trace.create ~rates:[| 1.0 |] ~slot:1.0)))

(* ------------------------------------------------------------------ *)
(* Priority multiplexer *)

let random_trace ~seed ~n ~peak ~slot =
  let rng = Lrd_rng.Rng.create ~seed in
  Lrd_trace.Trace.create
    ~rates:(Array.init n (fun _ -> Lrd_rng.Rng.float rng *. peak))
    ~slot

let test_priority_high_class_isolated () =
  (* The high class's stats must equal a standalone queue's. *)
  let high = random_trace ~seed:71L ~n:4_000 ~peak:2.0 ~slot:0.1 in
  let low = random_trace ~seed:72L ~n:4_000 ~peak:1.0 ~slot:0.1 in
  let high_stats, _ =
    Priority.run ~service_rate:1.4 ~high_buffer:0.5 ~low_buffer:0.5 ~high ~low
  in
  let solo = Queue_sim.make ~service_rate:1.4 ~buffer:0.5 () in
  let solo_stats = Queue_sim.run_trace solo high in
  check_close "same loss" solo_stats.Queue_sim.lost high_stats.Queue_sim.lost;
  check_close "same arrived" solo_stats.Queue_sim.arrived
    high_stats.Queue_sim.arrived

let test_priority_zero_high_is_plain_queue () =
  let low = random_trace ~seed:73L ~n:4_000 ~peak:2.5 ~slot:0.1 in
  let high =
    Lrd_trace.Trace.create
      ~rates:(Array.make 4_000 0.0)
      ~slot:0.1
  in
  let _, low_stats =
    Priority.run ~service_rate:1.4 ~high_buffer:0.1 ~low_buffer:0.6 ~high ~low
  in
  let solo = Queue_sim.make ~service_rate:1.4 ~buffer:0.6 () in
  let solo_stats = Queue_sim.run_trace solo low in
  check_close ~eps:1e-9 "same loss" solo_stats.Queue_sim.lost
    low_stats.Priority.lost;
  check_close ~eps:1e-9 "same arrived" solo_stats.Queue_sim.arrived
    low_stats.Priority.arrived

let test_priority_low_class_deterministic () =
  (* One slot: high 1.0, low 1.0, c = 1.5, low buffer 0.2.
     High passes through at 1.0; residual 0.5 for low; low backlog grows
     at 0.5/s for 1 s -> exceeds 0.2 after 0.4 s; loss = 0.5 * 0.6. *)
  let high = Lrd_trace.Trace.create ~rates:[| 1.0 |] ~slot:1.0 in
  let low = Lrd_trace.Trace.create ~rates:[| 1.0 |] ~slot:1.0 in
  let _, low_stats =
    Priority.run ~service_rate:1.5 ~high_buffer:1.0 ~low_buffer:0.2 ~high ~low
  in
  check_close "arrived" 1.0 low_stats.Priority.arrived;
  check_close ~eps:1e-9 "lost" 0.3 low_stats.Priority.lost;
  check_close "max occupancy" 0.2 low_stats.Priority.max_occupancy

let test_priority_low_suffers_more_than_fifo_average () =
  (* At equal buffers, the low class's loss rate must be at least the
     high class's (it only gets leftovers). *)
  let high = random_trace ~seed:74L ~n:20_000 ~peak:2.0 ~slot:0.05 in
  let low = random_trace ~seed:75L ~n:20_000 ~peak:2.0 ~slot:0.05 in
  let high_stats, low_stats =
    Priority.run ~service_rate:2.2 ~high_buffer:0.3 ~low_buffer:0.3 ~high ~low
  in
  Alcotest.(check bool) "low >= high" true
    (low_stats.Priority.loss_rate
    >= Queue_sim.loss_rate high_stats -. 1e-12)

let test_priority_rejects_mismatched_traces () =
  let a = random_trace ~seed:76L ~n:10 ~peak:1.0 ~slot:0.1 in
  let b = random_trace ~seed:77L ~n:11 ~peak:1.0 ~slot:0.1 in
  Alcotest.check_raises "length"
    (Invalid_argument "Priority.run: traces must have equal lengths")
    (fun () ->
      ignore
        (Priority.run ~service_rate:1.0 ~high_buffer:1.0 ~low_buffer:1.0
           ~high:a ~low:b))

(* ------------------------------------------------------------------ *)
(* GPS multiplexer *)

let test_gps_underloaded_lossless () =
  let a = random_trace ~seed:81L ~n:2_000 ~peak:0.6 ~slot:0.1 in
  let b = random_trace ~seed:82L ~n:2_000 ~peak:0.6 ~slot:0.1 in
  let s1, s2 =
    Gps.run ~service_rate:1.5 ~weight:0.5 ~buffers:(0.1, 0.1) ~first:a
      ~second:b
  in
  check_close "no loss 1" 0.0 s1.Gps.lost;
  check_close "no loss 2" 0.0 s2.Gps.lost

let test_gps_deterministic_split () =
  (* Both classes flood at 2.0 with c = 2, phi = 0.75, tiny buffers:
     class 1 is served at 1.5, class 2 at 0.5; per unit time class 1
     loses 0.5 and class 2 loses 1.5 (after the buffers fill). *)
  let flood = Lrd_trace.Trace.create ~rates:(Array.make 10 2.0) ~slot:1.0 in
  let s1, s2 =
    Gps.run ~service_rate:2.0 ~weight:0.75 ~buffers:(0.001, 0.001)
      ~first:flood ~second:flood
  in
  check_close ~eps:1e-3 "class 1 loss" (0.5 /. 2.0) s1.Gps.loss_rate;
  check_close ~eps:1e-3 "class 2 loss" (1.5 /. 2.0) s2.Gps.loss_rate

let test_gps_work_conservation_vs_fifo () =
  (* Total carried work equals the FIFO queue's when buffers are pooled
     generously enough never to overflow in either system. *)
  let a = random_trace ~seed:83L ~n:5_000 ~peak:1.5 ~slot:0.1 in
  let b = random_trace ~seed:84L ~n:5_000 ~peak:1.5 ~slot:0.1 in
  let s1, s2 =
    Gps.run ~service_rate:1.6 ~weight:0.4 ~buffers:(50.0, 50.0) ~first:a
      ~second:b
  in
  check_close "nothing lost" 0.0 (s1.Gps.lost +. s2.Gps.lost);
  (* Arrived totals are faithful. *)
  check_close ~eps:1e-9 "arrived 1" (Lrd_trace.Trace.total_work a)
    s1.Gps.arrived

let test_gps_weight_monotonicity () =
  (* Raising a class's weight cannot raise its loss. *)
  let a = random_trace ~seed:85L ~n:10_000 ~peak:2.5 ~slot:0.05 in
  let b = random_trace ~seed:86L ~n:10_000 ~peak:2.5 ~slot:0.05 in
  let loss_of weight =
    let s1, _ =
      Gps.run ~service_rate:2.6 ~weight ~buffers:(0.2, 0.2) ~first:a
        ~second:b
    in
    s1.Gps.loss_rate
  in
  let l_low = loss_of 0.3 and l_high = loss_of 0.7 in
  Alcotest.(check bool) "monotone in weight" true (l_high <= l_low +. 1e-12)

let test_gps_approaches_priority_at_high_weight () =
  let a = random_trace ~seed:87L ~n:5_000 ~peak:2.0 ~slot:0.1 in
  let b = random_trace ~seed:88L ~n:5_000 ~peak:2.0 ~slot:0.1 in
  let s1, _ =
    Gps.run ~service_rate:2.1 ~weight:0.999 ~buffers:(0.3, 0.3) ~first:a
      ~second:b
  in
  let prio_high, _ =
    Priority.run ~service_rate:2.1 ~high_buffer:0.3 ~low_buffer:0.3 ~high:a
      ~low:b
  in
  check_close ~eps:0.02 "priority limit"
    (Queue_sim.loss_rate prio_high)
    s1.Gps.loss_rate

let test_gps_rejects_bad_weight () =
  let t = random_trace ~seed:89L ~n:10 ~peak:1.0 ~slot:0.1 in
  Alcotest.check_raises "weight 1"
    (Invalid_argument "Gps.run: weight must lie in (0, 1)") (fun () ->
      ignore
        (Gps.run ~service_rate:1.0 ~weight:1.0 ~buffers:(1.0, 1.0) ~first:t
           ~second:t))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_conservation =
  QCheck.Test.make ~name:"work conservation under random epochs" ~count:100
    (QCheck.make
       QCheck.Gen.(
         triple (float_range 0.1 5.0) (float_range 0.0 3.0)
           (list_size (int_range 1 200)
              (pair (float_range 0.0 4.0) (float_range 0.0 1.0)))))
    (fun (c, b, epochs) ->
      let s = Queue_sim.make ~service_rate:c ~buffer:b () in
      let stats = Queue_sim.run_epochs s (List.to_seq epochs) in
      Float.abs
        (stats.Queue_sim.arrived
        -. (stats.Queue_sim.served +. stats.Queue_sim.lost
          +. stats.Queue_sim.final_occupancy))
      <= 1e-9 *. (1.0 +. stats.Queue_sim.arrived))

let prop_occupancy_in_range =
  QCheck.Test.make ~name:"occupancy stays in [0, buffer]" ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair (float_range 0.0 2.0)
           (list_size (int_range 1 100)
              (pair (float_range 0.0 5.0) (float_range 0.0 2.0)))))
    (fun (b, epochs) ->
      let s = Queue_sim.make ~service_rate:1.0 ~buffer:b () in
      List.for_all
        (fun (rate, duration) ->
          ignore (Queue_sim.offer s ~rate ~duration);
          let q = Queue_sim.occupancy s in
          q >= 0.0 && q <= b +. 1e-12)
        epochs)

let prop_gps_accounting =
  QCheck.Test.make ~name:"GPS class accounting is conservative" ~count:50
    (QCheck.make
       QCheck.Gen.(
         triple (float_range 0.05 0.95)
           (list_size (int_range 1 80) (float_range 0.0 3.0))
           (list_size (int_range 1 80) (float_range 0.0 3.0))))
    (fun (weight, r1, r2) ->
      let n = min (List.length r1) (List.length r2) in
      let trace l =
        Lrd_trace.Trace.create
          ~rates:(Array.sub (Array.of_list l) 0 n)
          ~slot:0.2
      in
      let a = trace r1 and b = trace r2 in
      let s1, s2 =
        Gps.run ~service_rate:1.5 ~weight ~buffers:(0.4, 0.4) ~first:a
          ~second:b
      in
      s1.Gps.lost >= -1e-12
      && s2.Gps.lost >= -1e-12
      && s1.Gps.lost <= s1.Gps.arrived +. 1e-9
      && s2.Gps.lost <= s2.Gps.arrived +. 1e-9
      && s1.Gps.max_occupancy <= 0.4 +. 1e-9
      && s2.Gps.max_occupancy <= 0.4 +. 1e-9)

let prop_tandem_losses_bounded =
  QCheck.Test.make ~name:"tandem per-stage losses are consistent" ~count:50
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 100) (float_range 0.0 4.0)))
    (fun rates ->
      let trace =
        Lrd_trace.Trace.create ~rates:(Array.of_list rates) ~slot:0.1
      in
      let stages =
        [
          { Tandem.service_rate = 1.5; buffer = 0.2 };
          { Tandem.service_rate = 1.2; buffer = 0.2 };
        ]
      in
      match Tandem.run_trace ~stages trace with
      | [ s1; s2 ] ->
          let e2e = Tandem.end_to_end_loss [ s1; s2 ] in
          Float.abs (s1.Queue_sim.served -. s2.Queue_sim.arrived) <= 1e-9
          && e2e >= Queue_sim.loss_rate s1 -. 1e-12
          && e2e <= 1.0 +. 1e-12
      | _ -> false)

let prop_loss_zero_when_rate_below_service =
  QCheck.Test.make ~name:"no loss when rates never exceed service" ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 100)
           (pair (float_range 0.0 0.99) (float_range 0.0 2.0))))
    (fun epochs ->
      let s = Queue_sim.make ~service_rate:1.0 ~buffer:0.5 () in
      let stats = Queue_sim.run_epochs s (List.to_seq epochs) in
      stats.Queue_sim.lost = 0.0)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "fluidsim"
    [
      ( "epoch",
        [
          Alcotest.test_case "fill without overflow" `Quick
            test_fill_without_overflow;
          Alcotest.test_case "fill with overflow" `Quick
            test_fill_with_overflow;
          Alcotest.test_case "drain to empty" `Quick test_drain_to_empty;
          Alcotest.test_case "drain partial" `Quick test_drain_partial;
          Alcotest.test_case "rate equals service" `Quick
            test_rate_equal_service_rate;
          Alcotest.test_case "zero buffer" `Quick test_zero_buffer;
          Alcotest.test_case "rejects bad input" `Quick
            test_make_rejects_bad_input;
        ] );
      ( "stats",
        [
          Alcotest.test_case "work conservation" `Quick test_work_conservation;
          Alcotest.test_case "served bounded by capacity" `Quick
            test_served_bounded_by_capacity;
          Alcotest.test_case "served = busy * c" `Quick
            test_served_equals_busy_times_rate;
          Alcotest.test_case "max occupancy bounds" `Quick
            test_max_occupancy_monotone_bound;
          Alcotest.test_case "loss rate" `Quick test_loss_rate_and_utilization;
          Alcotest.test_case "periodic on/off closed form" `Quick
            test_on_off_deterministic_cycle;
        ] );
      ( "trace",
        [
          Alcotest.test_case "run_trace = run_epochs" `Quick
            test_run_trace_equals_run_epochs;
          Alcotest.test_case "per-slot losses sum" `Quick
            test_losses_per_slot_totals;
          Alcotest.test_case "per-slot occupancies" `Quick
            test_occupancy_per_slot;
          Alcotest.test_case "loss monotone in buffer" `Quick
            test_loss_monotone_in_buffer;
        ] );
      ( "tandem",
        [
          Alcotest.test_case "output segments" `Quick
            test_output_segments_cover_epoch;
          Alcotest.test_case "output work = served" `Quick
            test_output_work_equals_served;
          Alcotest.test_case "single stage = plain queue" `Quick
            test_tandem_single_stage_matches_plain_queue;
          Alcotest.test_case "flow conservation" `Quick
            test_tandem_flow_conservation;
          Alcotest.test_case "equal second hop lossless" `Quick
            test_tandem_second_hop_lossless_at_equal_rates;
          Alcotest.test_case "end-to-end loss" `Quick
            test_tandem_end_to_end_loss;
          Alcotest.test_case "rejects empty" `Quick test_tandem_rejects_empty;
        ] );
      ( "priority",
        [
          Alcotest.test_case "high class isolated" `Quick
            test_priority_high_class_isolated;
          Alcotest.test_case "zero high = plain queue" `Quick
            test_priority_zero_high_is_plain_queue;
          Alcotest.test_case "deterministic slot" `Quick
            test_priority_low_class_deterministic;
          Alcotest.test_case "low suffers at least as much" `Quick
            test_priority_low_suffers_more_than_fifo_average;
          Alcotest.test_case "rejects mismatched traces" `Quick
            test_priority_rejects_mismatched_traces;
        ] );
      ( "gps",
        [
          Alcotest.test_case "underloaded lossless" `Quick
            test_gps_underloaded_lossless;
          Alcotest.test_case "deterministic split" `Quick
            test_gps_deterministic_split;
          Alcotest.test_case "work conservation" `Quick
            test_gps_work_conservation_vs_fifo;
          Alcotest.test_case "weight monotonicity" `Quick
            test_gps_weight_monotonicity;
          Alcotest.test_case "priority limit" `Quick
            test_gps_approaches_priority_at_high_weight;
          Alcotest.test_case "rejects bad weight" `Quick
            test_gps_rejects_bad_weight;
        ] );
      ( "properties",
        qcheck
          [
            prop_conservation;
            prop_occupancy_in_range;
            prop_loss_zero_when_rate_below_service;
            prop_gps_accounting;
            prop_tandem_losses_bounded;
          ] );
    ]
