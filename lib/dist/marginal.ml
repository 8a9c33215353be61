type t = { rates : float array; probs : float array }

let create ~rates ~probs =
  let n = Array.length rates in
  if n = 0 then invalid_arg "Marginal.create: empty support";
  if Array.length probs <> n then
    invalid_arg "Marginal.create: rates and probs must have equal lengths";
  Array.iter
    (fun r ->
      if not (Float.is_finite r) then
        invalid_arg "Marginal.create: rates must be finite")
    rates;
  Array.iter
    (fun p ->
      if not (p >= 0.0 && Float.is_finite p) then
        invalid_arg "Marginal.create: probabilities must be nonnegative")
    probs;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare rates.(i) rates.(j)) order;
  (* Merge duplicates and drop zero-weight atoms in one sorted pass. *)
  let merged_rates = ref [] and merged_probs = ref [] in
  Array.iter
    (fun i ->
      let r = rates.(i) and p = probs.(i) in
      if p > 0.0 then
        match (!merged_rates, !merged_probs) with
        | r0 :: _, p0 :: rest_p when r0 = r -> merged_probs := (p0 +. p) :: rest_p
        | _ ->
            merged_rates := r :: !merged_rates;
            merged_probs := p :: !merged_probs)
    order;
  let rates = Array.of_list (List.rev !merged_rates) in
  let probs = Array.of_list (List.rev !merged_probs) in
  if Array.length rates = 0 then
    invalid_arg "Marginal.create: all probabilities are zero";
  Lrd_numerics.Array_ops.normalize probs;
  { rates; probs }

let of_points points =
  let rates = Array.of_list (List.map fst points) in
  let probs = Array.of_list (List.map snd points) in
  create ~rates ~probs

let constant rate = create ~rates:[| rate |] ~probs:[| 1.0 |]
let rates t = Array.copy t.rates
let probs t = Array.copy t.probs
let size t = Array.length t.rates

let mean t =
  let acc = Lrd_numerics.Summation.create () in
  Array.iteri
    (fun i p -> Lrd_numerics.Summation.add acc (p *. t.rates.(i)))
    t.probs;
  Lrd_numerics.Summation.total acc

let variance t =
  let m = mean t in
  let acc = Lrd_numerics.Summation.create () in
  Array.iteri
    (fun i p ->
      let d = t.rates.(i) -. m in
      Lrd_numerics.Summation.add acc (p *. d *. d))
    t.probs;
  Float.max 0.0 (Lrd_numerics.Summation.total acc)

let std t = sqrt (variance t)
let support t = (t.rates.(0), t.rates.(Array.length t.rates - 1))

let cdf t x =
  let acc = Lrd_numerics.Summation.create () in
  Array.iteri
    (fun i p -> if t.rates.(i) <= x then Lrd_numerics.Summation.add acc p)
    t.probs;
  Float.min 1.0 (Lrd_numerics.Summation.total acc)

let peak_to_mean t =
  let _, peak = support t in
  peak /. mean t

let scale ?(clamp = false) t ~factor =
  if not (factor >= 0.0) then
    invalid_arg "Marginal.scale: factor must be nonnegative";
  let m = mean t in
  let rates = Array.map (fun r -> m +. (factor *. (r -. m))) t.rates in
  let rates =
    Array.map
      (fun r ->
        if r >= 0.0 then r
        else if clamp then 0.0
        else invalid_arg "Marginal.scale: scaling produced a negative rate")
      rates
  in
  create ~rates ~probs:(Array.copy t.probs)

let rebin t ~bins =
  if bins < 1 then invalid_arg "Marginal.rebin: bins must be positive";
  let n = Array.length t.rates in
  if n <= bins then { rates = Array.copy t.rates; probs = Array.copy t.probs }
  else begin
    let lo, hi = support t in
    let width = (hi -. lo) /. float_of_int bins in
    let mass = Array.make bins 0.0 in
    let weighted_rate = Array.make bins 0.0 in
    for i = 0 to n - 1 do
      let b =
        if width = 0.0 then 0
        else min (bins - 1) (int_of_float ((t.rates.(i) -. lo) /. width))
      in
      mass.(b) <- mass.(b) +. t.probs.(i);
      weighted_rate.(b) <- weighted_rate.(b) +. (t.probs.(i) *. t.rates.(i))
    done;
    let rates = ref [] and probs = ref [] in
    for b = bins - 1 downto 0 do
      if mass.(b) > 0.0 then begin
        rates := (weighted_rate.(b) /. mass.(b)) :: !rates;
        probs := mass.(b) :: !probs
      end
    done;
    create ~rates:(Array.of_list !rates) ~probs:(Array.of_list !probs)
  end

(* Exact convolution of two discrete distributions followed by re-binning
   to keep the support size bounded. *)
let convolve_pair a b ~bins =
  let na = Array.length a.rates and nb = Array.length b.rates in
  let rates = Array.make (na * nb) 0.0 and probs = Array.make (na * nb) 0.0 in
  let k = ref 0 in
  for i = 0 to na - 1 do
    for j = 0 to nb - 1 do
      rates.(!k) <- a.rates.(i) +. b.rates.(j);
      probs.(!k) <- a.probs.(i) *. b.probs.(j);
      incr k
    done
  done;
  rebin (create ~rates ~probs) ~bins

let superpose ?(bins = 256) t ~n =
  if n < 1 then invalid_arg "Marginal.superpose: n must be at least 1";
  if n = 1 then { rates = Array.copy t.rates; probs = Array.copy t.probs }
  else begin
    let rec aggregate acc k =
      if k = 0 then acc else aggregate (convolve_pair acc t ~bins) (k - 1)
    in
    let sum = aggregate t (n - 1) in
    (* Renormalize the aggregate to the original mean: divide rates by n. *)
    let inv_n = 1.0 /. float_of_int n in
    create
      ~rates:(Array.map (fun r -> r *. inv_n) sum.rates)
      ~probs:(Array.copy sum.probs)
  end

let sampler t =
  let table = Lrd_rng.Sampler.discrete_of_weights t.probs in
  let rates = Array.copy t.rates in
  fun rng -> rates.(Lrd_rng.Sampler.discrete_draw rng table)

let pp fmt t =
  let lo, hi = support t in
  Format.fprintf fmt "marginal(%d atoms, mean=%.4g, std=%.4g, [%.4g, %.4g])"
    (size t) (mean t) (std t) lo hi
