(* Transform-domain superposition: aggregate marginals by repeated
   squaring of half-spectra, with an Edgeworth closed form when the
   exact grid would explode.  See superpose.mli for the design. *)

module Marginal = Lrd_dist.Marginal
module Fft = Lrd_numerics.Fft
module Summation = Lrd_numerics.Summation
module Special = Lrd_numerics.Special
module Obs = Lrd_obs.Obs

type method_ = Exact | Edgeworth | Auto

let default_bins = 256
let default_source_points = 64
let default_max_points = 1 lsl 20

let m_spectrum_multiplies = Obs.Counter.make "superpose/spectrum_multiplies"
let m_exact_path = Obs.Counter.make "superpose/exact_path_taken"
let m_fast_path = Obs.Counter.make "superpose/fast_path_taken"
let g_mass_drift = Obs.Gauge.make "superpose/mass_drift"

(* Fused half-spectrum passes.  Both count as one multiply pass each:
   the squaring is the degenerate self-multiply of the binary
   exponentiation. *)

let spectrum_multiply ~acc_re ~acc_im ~re ~im ~len =
  for i = 0 to len - 1 do
    let a = Array.unsafe_get acc_re i and b = Array.unsafe_get acc_im i in
    let c = Array.unsafe_get re i and d = Array.unsafe_get im i in
    Array.unsafe_set acc_re i ((a *. c) -. (b *. d));
    Array.unsafe_set acc_im i ((a *. d) +. (b *. c))
  done;
  Obs.Counter.incr m_spectrum_multiplies

let spectrum_square ~re ~im ~len =
  for i = 0 to len - 1 do
    let a = Array.unsafe_get re i and b = Array.unsafe_get im i in
    Array.unsafe_set re i ((a *. a) -. (b *. b));
    Array.unsafe_set im i (2.0 *. a *. b)
  done;
  Obs.Counter.incr m_spectrum_multiplies

(* Multiply [acc] by [base]^n, destroying [base] (right-to-left binary
   exponentiation: one square per bit, one multiply per set bit). *)
let pow_into ~acc_re ~acc_im ~base_re ~base_im ~len n =
  let n = ref n in
  while !n > 0 do
    if !n land 1 = 1 then
      spectrum_multiply ~acc_re ~acc_im ~re:base_re ~im:base_im ~len;
    n := !n asr 1;
    if !n > 0 then spectrum_square ~re:base_re ~im:base_im ~len
  done

(* One class lifted onto the shared uniform grid: [pmf.(j)] is the mass
   at rate [lo + j * d].  Linear (two-point) mass splitting keeps each
   atom's conditional mean exact, so the binned class mean equals the
   class mean to rounding. *)
type grid_class = { lo : float; points : int; pmf : float array }

let grid_points ~d width =
  if width <= 0.0 then 1
  else max 2 (1 + int_of_float (Float.ceil ((width /. d) -. 1e-9)))

let lift_class m ~d =
  let lo, hi = Marginal.support m in
  let width = hi -. lo in
  let points = grid_points ~d width in
  if points = 1 then { lo; points; pmf = [| 1.0 |] }
  else begin
    let pmf = Array.make points 0.0 in
    let rates = Marginal.rates m and probs = Marginal.probs m in
    Array.iteri
      (fun i r ->
        let x = (r -. lo) /. d in
        let j = min (int_of_float (Float.floor x)) (points - 2) in
        let frac = Float.min 1.0 (Float.max 0.0 (x -. float_of_int j)) in
        pmf.(j) <- pmf.(j) +. (probs.(i) *. (1.0 -. frac));
        pmf.(j + 1) <- pmf.(j + 1) +. (probs.(i) *. frac))
      rates;
    { lo; points; pmf }
  end

(* Aggregate grid length for step [d]: sum over classes of
   n_k * (points_k - 1), plus the origin point. *)
let aggregate_points ~d classes =
  List.fold_left
    (fun acc (m, n) ->
      let lo, hi = Marginal.support m in
      acc + (n * (grid_points ~d (hi -. lo) - 1)))
    1 classes

(* The fidelity step: every class keeps [source_points] points across
   its own support.  [None] when all classes are degenerate. *)
let fidelity_step ~source_points classes =
  List.fold_left
    (fun acc (m, _) ->
      let lo, hi = Marginal.support m in
      let width = hi -. lo in
      if width <= 0.0 then acc
      else
        let d = width /. float_of_int (source_points - 1) in
        match acc with Some d' when d' <= d -> acc | _ -> Some d)
    None classes

let validate ?(bins = default_bins) ?(source_points = default_source_points)
    ?(max_points = default_max_points) classes =
  if classes = [] then invalid_arg "Superpose: empty class list";
  List.iter
    (fun (_, n) -> if n < 0 then invalid_arg "Superpose: negative class count")
    classes;
  if bins < 1 then invalid_arg "Superpose: bins must be >= 1";
  if source_points < 2 then invalid_arg "Superpose: source_points must be >= 2";
  if max_points < 16 then invalid_arg "Superpose: max_points must be >= 16";
  let classes = List.filter (fun (_, n) -> n > 0) classes in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 classes in
  if total = 0 then invalid_arg "Superpose: all class counts are zero";
  (classes, total)

let decide ?source_points ?max_points classes =
  let source_points =
    Option.value source_points ~default:default_source_points
  in
  let max_points = Option.value max_points ~default:default_max_points in
  let classes, _total = validate ~source_points ~max_points classes in
  match fidelity_step ~source_points classes with
  | None -> Exact (* degenerate: the aggregate is a constant *)
  | Some d -> if aggregate_points ~d classes <= max_points then Exact
              else Edgeworth

(* Low-level kernel: n-fold linear self-convolution of a raw pmf. *)
let self_convolve ~pmf ~n =
  let len = Array.length pmf in
  if len = 0 then invalid_arg "Superpose.self_convolve: empty pmf";
  if n < 1 then invalid_arg "Superpose.self_convolve: n must be >= 1";
  if n = 1 then Array.copy pmf
  else if len = 1 then [| pmf.(0) ** float_of_int n |]
  else begin
    let out_len = (n * (len - 1)) + 1 in
    let size = Fft.next_power_of_two out_len in
    let plan = Fft.Real.cached_plan size in
    let sl = Fft.Real.spectrum_length plan in
    let base_re = Array.make sl 0.0 and base_im = Array.make sl 0.0 in
    Fft.Real.forward_ip plan ~signal:pmf ~len ~spec_re:base_re
      ~spec_im:base_im;
    (* Start from the delta spectrum (all ones): acc tracks base^k. *)
    let acc_re = Array.make sl 1.0 and acc_im = Array.make sl 0.0 in
    pow_into ~acc_re ~acc_im ~base_re ~base_im ~len:sl n;
    let out = Array.make out_len 0.0 in
    Fft.Real.inverse_ip plan ~spec_re:acc_re ~spec_im:acc_im ~signal:out
      ~len:out_len;
    (* pmfs are nonnegative; anything below zero is rounding noise. *)
    for i = 0 to out_len - 1 do
      if out.(i) < 0.0 then out.(i) <- 0.0
    done;
    out
  end

(* Compensated mass restoration: clear the transform's rounding noise,
   measure the drift from unit mass with a Neumaier sum, rescale.
   Returns the scale to apply (the caller folds it into the rebin
   pass).  Noise shows up two ways: negative values, and a positive
   far-field floor that measures at up to ~2e-13 of the peak on a
   10^5-point grid — integrated over the grid that fake mass (~1e-11)
   swamps the true sub-1e-12 tails and defeats the rebin pass's tail
   trimming.  Anything below 1e-12 of the peak is therefore zeroed:
   that clears the noise with ~5x margin while discarding only true
   mass beyond ~7.3 sigma (< 1e-12 total for a CLT-shaped
   aggregate). *)
let mass_restore agg len =
  let vmax = ref 0.0 in
  for i = 0 to len - 1 do
    if agg.(i) < 0.0 then agg.(i) <- 0.0
    else if agg.(i) > !vmax then vmax := agg.(i)
  done;
  let floor_ = !vmax *. 1e-12 in
  let acc = Summation.create () in
  for i = 0 to len - 1 do
    if agg.(i) < floor_ then agg.(i) <- 0.0;
    Summation.add acc agg.(i)
  done;
  let mass = Summation.total acc in
  if Obs.enabled () then Obs.Gauge.set g_mass_drift (Float.abs (mass -. 1.0));
  if mass > 0.0 && Float.is_finite mass then 1.0 /. mass else 1.0

(* Restore the exact target mean by an affine shift of the rates — the
   residual after grid binning is rounding-level on the exact path and
   truncation-level on the Edgeworth path; either way the solver sees
   the exact per-source mean, so the derived service rate is stable. *)
let restore_mean m ~target =
  let shift = target -. Marginal.mean m in
  if shift = 0.0 || not (Float.is_finite shift) then m
  else
    Marginal.create
      ~rates:(Array.map (fun r -> r +. shift) (Marginal.rates m))
      ~probs:(Marginal.probs m)

let per_source_mean classes ~total =
  let acc = Summation.create () in
  List.iter
    (fun (m, n) -> Summation.add acc (float_of_int n *. Marginal.mean m))
    classes;
  Summation.total acc /. float_of_int total

(* Collapse a dense grid pmf (origin [lo], step [d], [len] points,
   values scaled by [scale]) to at most [bins] atoms, each keeping its
   conditional mean rate, then renormalize per source.  A direct O(len)
   pass — Marginal.create on a million atoms would sort them all.

   The grid spans the full combinatorial support, but at large N the
   aggregate concentrates on an O(sqrt N) sliver of it, so binning the
   whole range would blur the distribution into a handful of bins.  The
   tails outside the smallest index range holding all but [trim_eps] of
   the mass per side are folded into the boundary bins — conditional
   means stay exact, so no mass or mean is lost, only sub-1e-12 tail
   structure. *)
let trim_eps = 1e-12

let grid_to_marginal agg ~len ~lo ~d ~scale ~bins ~total =
  let rate j = lo +. (float_of_int j *. d) in
  let head_mass = ref 0.0 and head_weighted = ref 0.0 in
  let j_lo = ref 0 in
  while
    !j_lo < len - 1
    && !head_mass +. (agg.(!j_lo) *. scale) <= trim_eps
  do
    let p = agg.(!j_lo) *. scale in
    head_mass := !head_mass +. p;
    head_weighted := !head_weighted +. (p *. rate !j_lo);
    incr j_lo
  done;
  let tail_mass = ref 0.0 and tail_weighted = ref 0.0 in
  let j_hi = ref (len - 1) in
  while
    !j_hi > !j_lo && !tail_mass +. (agg.(!j_hi) *. scale) <= trim_eps
  do
    let p = agg.(!j_hi) *. scale in
    tail_mass := !tail_mass +. p;
    tail_weighted := !tail_weighted +. (p *. rate !j_hi);
    decr j_hi
  done;
  let kept = !j_hi - !j_lo + 1 in
  let bins = min bins kept in
  let mass = Array.make bins 0.0 and weighted = Array.make bins 0.0 in
  mass.(0) <- !head_mass;
  weighted.(0) <- !head_weighted;
  mass.(bins - 1) <- mass.(bins - 1) +. !tail_mass;
  weighted.(bins - 1) <- weighted.(bins - 1) +. !tail_weighted;
  for j = !j_lo to !j_hi do
    let b = (j - !j_lo) * bins / kept in
    let p = agg.(j) *. scale in
    mass.(b) <- mass.(b) +. p;
    weighted.(b) <- weighted.(b) +. (p *. rate j)
  done;
  let n_total = float_of_int total in
  let rates = ref [] and probs = ref [] in
  for b = bins - 1 downto 0 do
    if mass.(b) > 0.0 then begin
      rates := weighted.(b) /. mass.(b) /. n_total :: !rates;
      probs := mass.(b) :: !probs
    end
  done;
  Marginal.create ~rates:(Array.of_list !rates) ~probs:(Array.of_list !probs)

let exact_aggregate ~bins ~source_points ~max_points classes ~total =
  let target_mean = per_source_mean classes ~total in
  match fidelity_step ~source_points classes with
  | None ->
      (* Every class is a constant: so is the aggregate. *)
      Marginal.constant target_mean
  | Some d0 ->
      (* Widen the step until the aggregate grid fits the cap (the Auto
         cost model avoids this branch; forced Exact degrades). *)
      let rec fit d =
        if aggregate_points ~d classes <= max_points then d
        else fit (d *. 1.25)
      in
      let d = fit d0 in
      let lifted = List.map (fun (m, n) -> (lift_class m ~d, n)) classes in
      let out_len =
        List.fold_left (fun acc (c, n) -> acc + (n * (c.points - 1))) 1 lifted
      in
      let lo_total =
        let acc = Summation.create () in
        List.iter
          (fun (c, n) -> Summation.add acc (float_of_int n *. c.lo))
          lifted;
        Summation.total acc
      in
      let size = Fft.next_power_of_two out_len in
      let plan = Fft.Real.cached_plan size in
      let sl = Fft.Real.spectrum_length plan in
      let acc_re = Array.make sl 1.0 and acc_im = Array.make sl 0.0 in
      let base_re = Array.make sl 0.0 and base_im = Array.make sl 0.0 in
      List.iter
        (fun (c, n) ->
          Fft.Real.forward_ip plan ~signal:c.pmf ~len:c.points
            ~spec_re:base_re ~spec_im:base_im;
          pow_into ~acc_re ~acc_im ~base_re ~base_im ~len:sl n)
        lifted;
      let agg = Array.make out_len 0.0 in
      Fft.Real.inverse_ip plan ~spec_re:acc_re ~spec_im:acc_im ~signal:agg
        ~len:out_len;
      let scale = mass_restore agg out_len in
      let m =
        grid_to_marginal agg ~len:out_len ~lo:lo_total ~d ~scale ~bins ~total
      in
      restore_mean m ~target:target_mean

(* Third central moment of one source: sum p (r - mu)^3. *)
let central3 m =
  let mu = Marginal.mean m in
  let rates = Marginal.rates m and probs = Marginal.probs m in
  let acc = Summation.create () in
  Array.iteri
    (fun i r ->
      let dr = r -. mu in
      Summation.add acc (probs.(i) *. dr *. dr *. dr))
    rates;
  Summation.total acc

let sqrt_two_pi = Float.sqrt (2.0 *. Float.pi)
let normal_pdf z = Float.exp (-0.5 *. z *. z) /. sqrt_two_pi

let edgeworth_aggregate ~bins classes ~total =
  let n_total = float_of_int total in
  (* Aggregate cumulants: cumulants of independent sums add, so
     K1 = sum n_k mu_k, K2 = sum n_k var_k, K3 = sum n_k kappa3_k. *)
  let k1 = Summation.create ()
  and k2 = Summation.create ()
  and k3 = Summation.create ()
  and lo_acc = Summation.create ()
  and hi_acc = Summation.create () in
  List.iter
    (fun (m, n) ->
      let nf = float_of_int n in
      Summation.add k1 (nf *. Marginal.mean m);
      Summation.add k2 (nf *. Marginal.variance m);
      Summation.add k3 (nf *. central3 m);
      let lo, hi = Marginal.support m in
      Summation.add lo_acc (nf *. lo);
      Summation.add hi_acc (nf *. hi))
    classes;
  let k1 = Summation.total k1
  and k2 = Summation.total k2
  and k3 = Summation.total k3 in
  let target_mean = k1 /. n_total in
  if k2 <= 0.0 then Marginal.constant target_mean
  else begin
    let sigma = Float.sqrt k2 in
    let gamma = k3 /. (k2 *. sigma) in
    (* One-term Edgeworth expansion of the cdf:
       F(x) = Phi(z) - phi(z) (gamma / 6) (z^2 - 1),  z = (x - K1)/sigma. *)
    let cdf x =
      let z = (x -. k1) /. sigma in
      let f =
        Special.normal_cdf z
        -. (normal_pdf z *. gamma /. 6.0 *. ((z *. z) -. 1.0))
      in
      Float.min 1.0 (Float.max 0.0 f)
    in
    (* Grid over K1 +- 8 sigma, clamped to the physical support. *)
    let lo_g = Float.max (Summation.total lo_acc) (k1 -. (8.0 *. sigma)) in
    let hi_g = Float.min (Summation.total hi_acc) (k1 +. (8.0 *. sigma)) in
    if not (hi_g > lo_g) then Marginal.constant target_mean
    else begin
      let span = hi_g -. lo_g in
      let edge i = lo_g +. (span *. float_of_int i /. float_of_int bins) in
      let rates = Array.make bins 0.0 and probs = Array.make bins 0.0 in
      for i = 0 to bins - 1 do
        let e0 = edge i and e1 = edge (i + 1) in
        (* Outermost bins absorb the tails beyond the grid. *)
        let f0 = if i = 0 then 0.0 else cdf e0 in
        let f1 = if i = bins - 1 then 1.0 else cdf e1 in
        probs.(i) <- Float.max 0.0 (f1 -. f0);
        rates.(i) <- 0.5 *. (e0 +. e1) /. n_total
      done;
      let scale = mass_restore probs bins in
      if scale <> 1.0 then
        Array.iteri (fun i p -> probs.(i) <- p *. scale) probs;
      let m = Marginal.create ~rates ~probs in
      restore_mean m ~target:target_mean
    end
  end

let aggregate ?(method_ = Auto) ?(bins = default_bins)
    ?(source_points = default_source_points)
    ?(max_points = default_max_points) classes =
  let classes, total = validate ~bins ~source_points ~max_points classes in
  let chosen =
    match method_ with
    | Auto -> decide ~source_points ~max_points classes
    | m -> m
  in
  match chosen with
  | Exact | Auto ->
      Obs.Counter.incr m_exact_path;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~arg:total "superpose/exact";
      exact_aggregate ~bins ~source_points ~max_points classes ~total
  | Edgeworth ->
      Obs.Counter.incr m_fast_path;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~arg:total "superpose/edgeworth";
      edgeworth_aggregate ~bins classes ~total

let superpose ?method_ ?bins ?source_points ?max_points t ~n =
  if n < 1 then invalid_arg "Superpose.superpose: n must be >= 1";
  aggregate ?method_ ?bins ?source_points ?max_points [ (t, n) ]
