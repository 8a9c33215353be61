let check_d d =
  if not (d >= 0.0 && d < 0.5) then
    invalid_arg "Farima: d must lie in [0, 0.5)"

(* rho(k) = prod_{i=1..k} (i - 1 + d) / (i - d). *)
let autocorrelation ~d k =
  check_d d;
  let k = abs k in
  let rec go i acc =
    if i > k then acc
    else
      go (i + 1) (acc *. (float_of_int i -. 1.0 +. d) /. (float_of_int i -. d))
  in
  go 1 1.0

let variance ~d =
  check_d d;
  exp
    (Lrd_numerics.Special.log_gamma (1.0 -. (2.0 *. d))
    -. (2.0 *. Lrd_numerics.Special.log_gamma (1.0 -. d)))

module Plan = struct
  type t = Circulant.t

  let make ~d ~n =
    check_d d;
    if n <= 0 then invalid_arg "Farima.generate: n must be positive";
    let sigma2 = variance ~d in
    let half = Circulant.embedding_half ~n in
    (* Autocovariance by the stable ratio recurrence, filled out to the
       circulant embedding. *)
    let acv = Array.make (half + 1) sigma2 in
    for k = 1 to half do
      acv.(k) <-
        acv.(k - 1) *. (float_of_int k -. 1.0 +. d) /. (float_of_int k -. d)
    done;
    Circulant.make ~name:"Farima.generate"
      ~acv:(fun k -> acv.(k))
      ~tol:(1e-8 *. sigma2) ~n

  let draw = Circulant.draw
  let generate = Circulant.generate
end

let domain_plans = Lrd_parallel.Arena.create (fun (d, n) -> Plan.make ~d ~n)
let domain_plan ~d ~n = Lrd_parallel.Arena.get domain_plans (d, n)

let generate rng ~d ~n =
  check_d d;
  if n <= 0 then invalid_arg "Farima.generate: n must be positive";
  Plan.generate (domain_plan ~d ~n) rng
