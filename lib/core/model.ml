type t = {
  marginal : Lrd_dist.Marginal.t;
  interarrival : Lrd_dist.Interarrival.t;
}

let create ~marginal ~interarrival = { marginal; interarrival }

let cutoff_pareto ~marginal ~theta ~alpha ~cutoff =
  create ~marginal
    ~interarrival:(Lrd_dist.Interarrival.truncated_pareto ~theta ~alpha ~cutoff)

let alpha_of_hurst hurst =
  if not (hurst > 0.5 && hurst < 1.0) then
    invalid_arg "Model.alpha_of_hurst: hurst must lie in (0.5, 1)";
  3.0 -. (2.0 *. hurst)

let of_hurst ~marginal ~hurst ~theta ~cutoff =
  cutoff_pareto ~marginal ~theta ~alpha:(alpha_of_hurst hurst) ~cutoff

let mean_rate t = Lrd_dist.Marginal.mean t.marginal
let rate_variance t = Lrd_dist.Marginal.variance t.marginal
let mean_epoch t = t.interarrival.Lrd_dist.Interarrival.mean

(* Pr{tau_res >= t} = int_t^inf Pr{T > x} dx / E[T] (eq. 5). *)
let residual_life_ccdf t lag =
  if lag <= 0.0 then 1.0
  else
    t.interarrival.Lrd_dist.Interarrival.survival_integral lag
    /. t.interarrival.Lrd_dist.Interarrival.mean

let covariance t lag = rate_variance t *. residual_life_ccdf t lag

let service_rate_for_utilization t ~utilization =
  if not (utilization > 0.0 && utilization < 1.0) then
    invalid_arg "Model.service_rate_for_utilization: utilization in (0, 1)";
  mean_rate t /. utilization

let sample_epochs t rng ~n =
  if n <= 0 then invalid_arg "Model.sample_epochs: n must be positive";
  let draw_rate = Lrd_dist.Marginal.sampler t.marginal in
  Array.init n (fun _ ->
      ( draw_rate rng,
        t.interarrival.Lrd_dist.Interarrival.sample rng ))

let sample_trace t rng ~slots ~slot =
  if slots <= 0 then invalid_arg "Model.sample_trace: slots must be positive";
  if not (slot > 0.0) then invalid_arg "Model.sample_trace: slot must be positive";
  let horizon = float_of_int slots *. slot in
  let work = Array.make slots 0.0 in
  let draw_rate = Lrd_dist.Marginal.sampler t.marginal in
  let time = ref 0.0 in
  while !time < horizon do
    let rate = draw_rate rng in
    let dur =
      Float.max 1e-12 (t.interarrival.Lrd_dist.Interarrival.sample rng)
    in
    let t0 = !time and t1 = Float.min horizon (!time +. dur) in
    (* Spread the epoch's work across the slots it overlaps. *)
    let first = int_of_float (t0 /. slot) in
    let last = min (slots - 1) (int_of_float ((t1 -. 1e-12) /. slot)) in
    for b = first to last do
      let lo = Float.max t0 (float_of_int b *. slot) in
      let hi = Float.min t1 (float_of_int (b + 1) *. slot) in
      if hi > lo then work.(b) <- work.(b) +. (rate *. (hi -. lo))
    done;
    time := !time +. dur
  done;
  Lrd_trace.Trace.create ~rates:(Array.map (fun w -> w /. slot) work) ~slot

let fit_from_trace ?(bins = 50) ?hurst ?(cutoff = Float.infinity) trace =
  let marginal = Lrd_trace.Histogram.marginal_of_trace ~bins trace in
  let hurst =
    match hurst with
    | Some h -> h
    | None -> (Lrd_stats.Hurst.abry_veitch trace.Lrd_trace.Trace.rates).hurst
  in
  (* Clamp estimator noise into the valid LRD range. *)
  let hurst = Float.max 0.55 (Float.min 0.95 hurst) in
  let alpha = alpha_of_hurst hurst in
  let mean_epoch = Lrd_trace.Epochs.mean_epoch_duration ~bins trace in
  (* Paper Section III: theta is matched for T_c = infinity, then the
     same theta is used for every finite cutoff. *)
  let theta =
    Lrd_dist.Interarrival.theta_for_mean_epoch ~mean_epoch ~alpha ()
  in
  cutoff_pareto ~marginal ~theta ~alpha ~cutoff

let pp fmt t =
  Format.fprintf fmt "model(%a, %s)" Lrd_dist.Marginal.pp t.marginal
    t.interarrival.Lrd_dist.Interarrival.name
