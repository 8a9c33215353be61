(** Packet arrival processes derived from fluid rate traces.

    The paper works entirely in the fluid abstraction; to quantify what
    that abstraction hides, a rate trace is "packetized": within each
    slot of average rate [r], packets of a fixed size are emitted as a
    Poisson stream of intensity [r / size] (a doubly stochastic Poisson
    process whose random intensity is the trace), or on a deterministic
    lattice with the same per-slot count in expectation. *)

type packet = {
  time : float;  (** Arrival instant (s). *)
  size : float;  (** Bits. *)
}

val poissonize :
  Lrd_rng.Rng.t ->
  Lrd_trace.Trace.t ->
  packet_size:float ->
  packet Seq.t
(** Doubly stochastic Poisson packetization: slot [i] with rate [r_i]
    emits [Poisson(r_i * slot / packet_size)] packets at i.i.d. uniform
    instants within the slot, sorted.  The sequence is produced lazily
    slot by slot.  @raise Invalid_argument if [packet_size <= 0]. *)

val count : packet Seq.t -> int
(** Consumes the sequence. *)
