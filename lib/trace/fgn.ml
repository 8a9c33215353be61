let check_hurst hurst =
  if not (hurst > 0.0 && hurst < 1.0) then
    invalid_arg "Fgn: hurst must lie in (0, 1)"

let autocovariance ~hurst k =
  check_hurst hurst;
  let k = Float.abs (float_of_int k) in
  let h2 = 2.0 *. hurst in
  0.5 *. (((k +. 1.0) ** h2) -. (2.0 *. (k ** h2)) +. (Float.abs (k -. 1.0) ** h2))

module Plan = struct
  type t = Circulant.t

  let make ~hurst ~n =
    check_hurst hurst;
    if n <= 0 then invalid_arg "Fgn.davies_harte: n must be positive";
    Circulant.make ~name:"Fgn.davies_harte"
      ~acv:(fun k -> autocovariance ~hurst k)
      ~tol:1e-8 ~n

  let draw = Circulant.draw
  let generate = Circulant.generate
end

(* Plans hold mutable scratch, so the cache is per domain: composes with
   the parallel pool without locks, and each long-lived worker domain
   amortizes the eigenvalue setup across its share of a sweep. *)
let domain_plans =
  Lrd_parallel.Arena.create (fun (hurst, n) -> Plan.make ~hurst ~n)

let domain_plan ~hurst ~n = Lrd_parallel.Arena.get domain_plans (hurst, n)

let davies_harte rng ~hurst ~n = Plan.generate (Plan.make ~hurst ~n) rng

let hosking rng ~hurst ~n =
  check_hurst hurst;
  if n <= 0 then invalid_arg "Fgn.hosking: n must be positive";
  let gamma = Array.init (n + 1) (fun k -> autocovariance ~hurst k) in
  let out = Array.make n 0.0 in
  let phi = Array.make n 0.0 and phi_prev = Array.make n 0.0 in
  let gaussian () = Lrd_rng.Sampler.normal rng ~mean:0.0 ~std:1.0 in
  out.(0) <- gaussian ();
  let v = ref 1.0 in
  for i = 1 to n - 1 do
    (* Durbin-Levinson update of the partial autocorrelations. *)
    let num = ref gamma.(i) in
    for j = 0 to i - 2 do
      num := !num -. (phi_prev.(j) *. gamma.(i - 1 - j))
    done;
    let kappa = !num /. !v in
    phi.(i - 1) <- kappa;
    for j = 0 to i - 2 do
      phi.(j) <- phi_prev.(j) -. (kappa *. phi_prev.(i - 2 - j))
    done;
    v := !v *. (1.0 -. (kappa *. kappa));
    let mean = ref 0.0 in
    for j = 0 to i - 1 do
      mean := !mean +. (phi.(j) *. out.(i - 1 - j))
    done;
    out.(i) <- !mean +. (sqrt !v *. gaussian ());
    Array.blit phi 0 phi_prev 0 i
  done;
  out
