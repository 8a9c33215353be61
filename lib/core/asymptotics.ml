let kappa hurst = (hurst ** hurst) *. ((1.0 -. hurst) ** (1.0 -. hurst))

let fbm_tail_exponent ~hurst = 2.0 -. (2.0 *. hurst)

let fbm_tail ~mean ~variance_coefficient ~hurst ~service_rate ~level =
  if not (hurst >= 0.5 && hurst < 1.0) then
    invalid_arg "Asymptotics.fbm_tail: hurst must lie in [0.5, 1)";
  if not (mean > 0.0 && variance_coefficient > 0.0) then
    invalid_arg "Asymptotics.fbm_tail: parameters must be positive";
  if not (service_rate > mean) then
    invalid_arg "Asymptotics.fbm_tail: queue must be stable (c > mean)";
  if level <= 0.0 then 1.0
  else begin
    let k = kappa hurst in
    let gamma =
      ((service_rate -. mean) ** (2.0 *. hurst))
      /. (2.0 *. k *. k *. variance_coefficient *. mean)
    in
    exp (-.gamma *. (level ** fbm_tail_exponent ~hurst))
  end

let onoff_tail ~peak ~mean_on ~mean_off ~alpha ~service_rate ~level =
  if not (alpha > 1.0) then
    invalid_arg "Asymptotics.onoff_tail: alpha must exceed 1";
  if not (peak > 0.0 && mean_on > 0.0 && mean_off > 0.0) then
    invalid_arg "Asymptotics.onoff_tail: parameters must be positive";
  let rho_on = mean_on /. (mean_on +. mean_off) in
  let mean_rate = peak *. rho_on in
  if not (mean_rate < service_rate && service_rate < peak) then
    invalid_arg
      "Asymptotics.onoff_tail: need mean rate < service rate < peak";
  if level <= 0.0 then 1.0
  else begin
    let theta_on = mean_on *. (alpha -. 1.0) in
    let scaled = level /. ((peak -. service_rate) *. theta_on) in
    rho_on *. ((scaled +. 1.0) ** (1.0 -. alpha))
  end

let exponential_decay_rate ~marginal ~mean_epoch ~service_rate =
  if not (mean_epoch > 0.0) then
    invalid_arg "Asymptotics.exponential_decay_rate: mean epoch <= 0";
  let mean_rate = Lrd_dist.Marginal.mean marginal in
  if not (mean_rate < service_rate) then
    invalid_arg "Asymptotics.exponential_decay_rate: unstable queue";
  let rates = Lrd_dist.Marginal.rates marginal in
  let probs = Lrd_dist.Marginal.probs marginal in
  let max_delta =
    Array.fold_left
      (fun acc r -> Float.max acc (r -. service_rate))
      neg_infinity rates
  in
  if max_delta <= 0.0 then
    invalid_arg
      "Asymptotics.exponential_decay_rate: no rate above the service rate \
       (queue is always empty)";
  (* E[exp(delta W)] with W = T (lambda - c), T ~ exp(mean_epoch):
     sum_i pi_i / (1 - delta m (lambda_i - c)), finite for
     delta < 1 / (m max_delta).  At delta = 0 the value is 1 with
     negative derivative (E[W] < 0 by stability); it diverges to +inf at
     the pole, so a unique positive root exists. *)
  let mgf delta =
    let acc = ref 0.0 in
    Array.iteri
      (fun i p ->
        acc :=
          !acc
          +. (p /. (1.0 -. (delta *. mean_epoch *. (rates.(i) -. service_rate)))))
      probs;
    !acc
  in
  let pole = 1.0 /. (mean_epoch *. max_delta) in
  let f delta = mgf delta -. 1.0 in
  (* Bracket: f(eps) < 0 just above zero, f -> +inf near the pole. *)
  let lo = ref (pole *. 1e-9) in
  while f !lo > 0.0 && !lo > 1e-300 do
    lo := !lo /. 10.0
  done;
  let hi = ref (pole *. 0.5) in
  while f !hi < 0.0 do
    hi := (!hi +. pole) /. 2.0
  done;
  Lrd_numerics.Roots.bisection ~f ~lo:!lo ~hi:!hi ()

