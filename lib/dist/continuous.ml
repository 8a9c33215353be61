open Lrd_numerics

type t = {
  name : string;
  mean : float;
  variance : float;
  cdf : float -> float;
  quantile : float -> float;
  sample : Lrd_rng.Rng.t -> float;
}

let gamma ~shape ~scale =
  if not (shape > 0.0 && scale > 0.0) then
    invalid_arg "Continuous.gamma: parameters must be positive";
  let cdf x = if x <= 0.0 then 0.0 else Special.gamma_p ~a:shape ~x:(x /. scale) in
  let mean = shape *. scale in
  let std = sqrt shape *. scale in
  let quantile p =
    if not (p > 0.0 && p < 1.0) then
      invalid_arg "Continuous.gamma quantile: p must lie in (0, 1)";
    (* Bracket around a normal approximation, then bisect/Newton. *)
    let guess = Float.max (mean +. (Special.normal_quantile p *. std)) 1e-12 in
    let lo = ref (Float.min guess 1e-12) and hi = ref (Float.max guess mean) in
    while cdf !lo > p do
      lo := !lo /. 4.0
    done;
    while cdf !hi < p do
      hi := !hi *. 2.0
    done;
    Roots.bisection ~f:(fun x -> cdf x -. p) ~lo:!lo ~hi:!hi ~eps:1e-13 ()
  in
  {
    name = Printf.sprintf "gamma(shape=%g, scale=%g)" shape scale;
    mean;
    variance = shape *. scale *. scale;
    cdf;
    quantile;
    sample = (fun rng -> Lrd_rng.Sampler.gamma rng ~shape ~scale);
  }

let normal ~mean ~std =
  if not (std > 0.0) then
    invalid_arg "Continuous.normal: std must be positive";
  {
    name = Printf.sprintf "normal(mean=%g, std=%g)" mean std;
    mean;
    variance = std *. std;
    cdf = (fun x -> Special.normal_cdf ((x -. mean) /. std));
    quantile =
      (fun p -> mean +. (std *. Special.normal_quantile p));
    sample = (fun rng -> Lrd_rng.Sampler.normal rng ~mean ~std);
  }

let lognormal ~mu ~sigma =
  if not (sigma > 0.0) then
    invalid_arg "Continuous.lognormal: sigma must be positive";
  let mean = exp (mu +. (sigma *. sigma /. 2.0)) in
  let variance = (exp (sigma *. sigma) -. 1.0) *. mean *. mean in
  {
    name = Printf.sprintf "lognormal(mu=%g, sigma=%g)" mu sigma;
    mean;
    variance;
    cdf =
      (fun x ->
        if x <= 0.0 then 0.0 else Special.normal_cdf ((log x -. mu) /. sigma));
    quantile = (fun p -> exp (mu +. (sigma *. Special.normal_quantile p)));
    sample = (fun rng -> Lrd_rng.Sampler.lognormal rng ~mu ~sigma);
  }

let gamma_of_mean_cv ~mean ~cv =
  if not (mean > 0.0 && cv > 0.0) then
    invalid_arg "Continuous.gamma_of_mean_cv: parameters must be positive";
  let shape = 1.0 /. (cv *. cv) in
  gamma ~shape ~scale:(mean /. shape)

