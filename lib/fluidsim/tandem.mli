(** Tandem (multi-hop) fluid networks: a chain of finite-buffer
    constant-rate servers in which each stage is fed by the exact
    departure process of the previous one.

    Per input epoch the departure of a stage is one or two constant-rate
    segments ({!Queue_sim.offer_with_output}), so the whole tandem is
    simulated exactly, with no time discretization, in a single lazy
    pass.  This extends the paper's single-queue setting to the
    multi-hop question the correlation-horizon logic raises: each hop's
    buffer sets its own horizon, and upstream queues smooth the traffic
    seen downstream. *)

type stage = {
  service_rate : float;
  buffer : float;
}

val run_trace :
  stages:stage list -> Lrd_trace.Trace.t -> Queue_sim.stats list
(** Feeds the trace through the stages in order, each slot one
    [(rate, slot)] input epoch, and returns per-stage statistics.
    @raise Invalid_argument if no stage is given or a stage has a
    nonpositive service rate / negative buffer. *)

val end_to_end_loss : Queue_sim.stats list -> float
(** Total work lost anywhere in the tandem divided by the work offered
    to the first stage. *)
