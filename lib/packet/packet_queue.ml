type stats = {
  offered_packets : int;
  offered_work : float;
  dropped_packets : int;
  dropped_work : float;
  mean_delay : float;
  max_delay : float;
  max_backlog : float;
  final_backlog : float;
}

let loss_rate s =
  if s.offered_work > 0.0 then s.dropped_work /. s.offered_work else 0.0

let run ~service_rate ~buffer arrivals =
  if not (service_rate > 0.0) then
    invalid_arg "Packet_queue.run: service rate must be positive";
  if not (buffer >= 0.0) then
    invalid_arg "Packet_queue.run: buffer must be nonnegative";
  let backlog = ref 0.0 in
  let clock = ref 0.0 in
  let offered_packets = ref 0 and dropped_packets = ref 0 in
  let offered_work = Lrd_numerics.Summation.create () in
  let dropped_work = Lrd_numerics.Summation.create () in
  let delay_sum = Lrd_numerics.Summation.create () in
  let accepted = ref 0 in
  let max_delay = ref 0.0 and max_backlog = ref 0.0 in
  Seq.iter
    (fun { Arrivals.time; size } ->
      if time < !clock -. 1e-9 then
        invalid_arg "Packet_queue.run: arrivals must be time ordered";
      (* Drain since the previous event. *)
      backlog :=
        Float.max 0.0 (!backlog -. (service_rate *. (time -. !clock)));
      clock := Float.max !clock time;
      incr offered_packets;
      Lrd_numerics.Summation.add offered_work size;
      if !backlog +. size <= buffer +. 1e-12 then begin
        let delay = !backlog /. service_rate in
        Lrd_numerics.Summation.add delay_sum delay;
        incr accepted;
        if delay > !max_delay then max_delay := delay;
        backlog := !backlog +. size;
        if !backlog > !max_backlog then max_backlog := !backlog
      end
      else begin
        incr dropped_packets;
        Lrd_numerics.Summation.add dropped_work size
      end)
    arrivals;
  {
    offered_packets = !offered_packets;
    offered_work = Lrd_numerics.Summation.total offered_work;
    dropped_packets = !dropped_packets;
    dropped_work = Lrd_numerics.Summation.total dropped_work;
    mean_delay =
      (if !accepted > 0 then
         Lrd_numerics.Summation.total delay_sum /. float_of_int !accepted
       else 0.0);
    max_delay = !max_delay;
    max_backlog = !max_backlog;
    final_backlog = !backlog;
  }
