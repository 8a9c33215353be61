(** FIFO packet queue with a finite buffer and a constant-rate server:
    the packet-level counterpart of the paper's fluid queue.

    The backlog (in bits) drains continuously at the service rate; an
    arriving packet is accepted in full if it fits
    ([backlog + size <= buffer]) and dropped in full otherwise —
    tail-drop, the behaviour of the ATM switch buffers the paper
    motivates with.  Event-driven and exact between arrivals.

    The waiting time recorded for an accepted packet is the backlog in
    front of it divided by the service rate (FIFO). *)

type stats = {
  offered_packets : int;
  offered_work : float;  (** Bits offered. *)
  dropped_packets : int;
  dropped_work : float;
  mean_delay : float;  (** Mean waiting time of accepted packets (s). *)
  max_delay : float;
  max_backlog : float;  (** Bits. *)
  final_backlog : float;
}

val loss_rate : stats -> float
(** Dropped work / offered work. *)

val run :
  service_rate:float ->
  buffer:float ->
  Arrivals.packet Seq.t ->
  stats
(** Feeds the (time-ordered) packets through the queue.
    @raise Invalid_argument on nonpositive service rate, negative
    buffer, or arrivals that go back in time. *)
