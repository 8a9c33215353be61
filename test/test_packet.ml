open Lrd_packet

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let rng () = Lrd_rng.Rng.create ~seed:424242L

let constant_trace ~rate ~slots ~slot =
  Lrd_trace.Trace.create ~rates:(Array.make slots rate) ~slot

(* ------------------------------------------------------------------ *)
(* Arrivals *)

let test_poissonize_count () =
  (* Expected packets = work / size. *)
  let trace = constant_trace ~rate:10.0 ~slots:2_000 ~slot:0.01 in
  let packets = Arrivals.poissonize (rng ()) trace ~packet_size:0.05 in
  let n = Arrivals.count packets in
  (* Mean 4000, std ~ 63: accept 5 sigma. *)
  Alcotest.(check bool) "count near mean" true (abs (n - 4000) < 320)

let test_poissonize_time_ordered () =
  let trace = constant_trace ~rate:5.0 ~slots:200 ~slot:0.02 in
  let packets = Arrivals.poissonize (rng ()) trace ~packet_size:0.01 in
  let last = ref neg_infinity in
  Seq.iter
    (fun p ->
      if p.Arrivals.time < !last then Alcotest.fail "out of order";
      last := p.Arrivals.time;
      if p.Arrivals.size <> 0.01 then Alcotest.fail "wrong size")
    packets

let test_arrivals_reject_bad_size () =
  let trace = constant_trace ~rate:1.0 ~slots:10 ~slot:1.0 in
  Alcotest.check_raises "zero size"
    (Invalid_argument "Arrivals: packet_size must be positive") (fun () ->
      let (_ : Arrivals.packet Seq.t) =
        Arrivals.poissonize (rng ()) trace ~packet_size:0.0
      in
      ())

(* ------------------------------------------------------------------ *)
(* Packet queue *)

let packets_of_list l =
  List.to_seq (List.map (fun (time, size) -> { Arrivals.time; size }) l)

let test_queue_accepts_within_buffer () =
  let stats =
    Packet_queue.run ~service_rate:1.0 ~buffer:10.0
      (packets_of_list [ (0.0, 3.0); (0.0, 3.0); (0.0, 3.0) ])
  in
  Alcotest.(check int) "no drops" 0 stats.Packet_queue.dropped_packets;
  check_close "backlog" 9.0 stats.Packet_queue.final_backlog;
  (* FIFO delays: 0, 3, 6 seconds. *)
  check_close "mean delay" 3.0 stats.Packet_queue.mean_delay;
  check_close "max delay" 6.0 stats.Packet_queue.max_delay

let test_queue_tail_drop () =
  let stats =
    Packet_queue.run ~service_rate:1.0 ~buffer:5.0
      (packets_of_list [ (0.0, 3.0); (0.0, 3.0); (0.0, 2.0) ])
  in
  (* Second packet would reach 6 > 5: dropped; third fits (3+2=5). *)
  Alcotest.(check int) "one drop" 1 stats.Packet_queue.dropped_packets;
  check_close "dropped work" 3.0 stats.Packet_queue.dropped_work;
  check_close "backlog" 5.0 stats.Packet_queue.final_backlog

let test_queue_drains_between_arrivals () =
  let stats =
    Packet_queue.run ~service_rate:2.0 ~buffer:10.0
      (packets_of_list [ (0.0, 4.0); (1.0, 1.0) ])
  in
  (* After 1 s the backlog is 2; second packet waits 1 s. *)
  Alcotest.(check int) "no drops" 0 stats.Packet_queue.dropped_packets;
  check_close "final backlog" 3.0 stats.Packet_queue.final_backlog;
  check_close "max delay" 1.0 stats.Packet_queue.max_delay

let test_queue_loss_rates () =
  let stats =
    Packet_queue.run ~service_rate:1.0 ~buffer:1.0
      (packets_of_list [ (0.0, 1.0); (0.0, 1.0); (0.0, 1.0); (0.0, 1.0) ])
  in
  check_close "work loss" 0.75 (Packet_queue.loss_rate stats);
  Alcotest.(check int) "dropped packets" 3 stats.Packet_queue.dropped_packets

let test_queue_rejects_disorder () =
  Alcotest.check_raises "time travel"
    (Invalid_argument "Packet_queue.run: arrivals must be time ordered")
    (fun () ->
      ignore
        (Packet_queue.run ~service_rate:1.0 ~buffer:10.0
           (packets_of_list [ (1.0, 1.0); (0.0, 1.0) ])))

let test_queue_rejects_bad_params () =
  Alcotest.check_raises "service rate"
    (Invalid_argument "Packet_queue.run: service rate must be positive")
    (fun () ->
      ignore (Packet_queue.run ~service_rate:0.0 ~buffer:1.0 Seq.empty))

(* ------------------------------------------------------------------ *)
(* Fluid limit *)

let test_small_packets_approach_fluid () =
  let r = rng () in
  let trace =
    Lrd_trace.Trace.create
      ~rates:(Array.init 20_000 (fun _ -> Lrd_rng.Rng.float r *. 2.0))
      ~slot:0.05
  in
  let c = 1.25 and buffer = 1.0 in
  let fluid =
    let sim = Lrd_fluidsim.Queue_sim.make ~service_rate:c ~buffer () in
    Lrd_fluidsim.Queue_sim.loss_rate
      (Lrd_fluidsim.Queue_sim.run_trace sim trace)
  in
  (* Poisson packetization with tiny packets: as the packet size
     shrinks, the packet queue converges to the fluid one. *)
  let packet =
    Packet_queue.loss_rate
      (Packet_queue.run ~service_rate:c ~buffer
         (Arrivals.poissonize r trace ~packet_size:0.002))
  in
  check_close ~eps:0.08 "fluid limit" fluid packet

let test_large_packets_lose_more () =
  let r = rng () in
  let trace =
    Lrd_trace.Trace.create
      ~rates:(Array.init 20_000 (fun _ -> Lrd_rng.Rng.float r *. 2.0))
      ~slot:0.05
  in
  let c = 1.25 and buffer = 0.5 in
  let loss size =
    Packet_queue.loss_rate
      (Packet_queue.run ~service_rate:c ~buffer
         (Arrivals.poissonize (rng ()) trace ~packet_size:size))
  in
  Alcotest.(check bool) "granularity costs" true (loss 0.25 > loss 0.01)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_queue_work_accounting =
  QCheck.Test.make ~name:"offered = dropped + accepted work" ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 50)
           (pair (float_range 0.0 5.0) (float_range 0.1 2.0))))
    (fun events ->
      (* Build time-ordered arrivals from cumulative gaps. *)
      let t = ref 0.0 in
      let packets =
        List.map
          (fun (gap, size) ->
            t := !t +. gap;
            { Arrivals.time = !t; size })
          events
      in
      let stats =
        Packet_queue.run ~service_rate:1.0 ~buffer:3.0
          (List.to_seq packets)
      in
      let accepted =
        stats.Packet_queue.offered_work -. stats.Packet_queue.dropped_work
      in
      accepted >= -.1e-9
      && stats.Packet_queue.offered_packets = List.length packets)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "packet"
    [
      ( "arrivals",
        [
          Alcotest.test_case "poisson count" `Quick test_poissonize_count;
          Alcotest.test_case "time ordered" `Quick
            test_poissonize_time_ordered;
          Alcotest.test_case "rejects bad size" `Quick
            test_arrivals_reject_bad_size;
        ] );
      ( "queue",
        [
          Alcotest.test_case "accepts within buffer" `Quick
            test_queue_accepts_within_buffer;
          Alcotest.test_case "tail drop" `Quick test_queue_tail_drop;
          Alcotest.test_case "drains between arrivals" `Quick
            test_queue_drains_between_arrivals;
          Alcotest.test_case "loss rates" `Quick test_queue_loss_rates;
          Alcotest.test_case "rejects disorder" `Quick
            test_queue_rejects_disorder;
          Alcotest.test_case "rejects bad params" `Quick
            test_queue_rejects_bad_params;
        ] );
      ( "fluid-limit",
        [
          Alcotest.test_case "small packets approach fluid" `Slow
            test_small_packets_approach_fluid;
          Alcotest.test_case "large packets lose more" `Slow
            test_large_packets_lose_more;
        ] );
      ("properties", qcheck [ prop_queue_work_accounting ]);
    ]
