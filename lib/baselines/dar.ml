type t = { marginal : Lrd_dist.Marginal.t; rho : float }

let create ~marginal ~rho =
  if not (rho >= 0.0 && rho < 1.0) then
    invalid_arg "Dar.create: rho must lie in [0, 1)";
  { marginal; rho }

let of_lag1 ~marginal ~lag1 = create ~marginal ~rho:lag1
let rho t = t.rho
let marginal t = t.marginal
let autocorrelation t ~lag = t.rho ** float_of_int (abs lag)

let generate t rng ~slots ~slot =
  if slots <= 0 then invalid_arg "Dar.generate: slots must be positive";
  let draw = Lrd_dist.Marginal.sampler t.marginal in
  let rates = Array.make slots 0.0 in
  rates.(0) <- draw rng;
  for i = 1 to slots - 1 do
    rates.(i) <-
      (if Lrd_rng.Rng.float rng < t.rho then rates.(i - 1) else draw rng)
  done;
  Lrd_trace.Trace.create ~rates ~slot
