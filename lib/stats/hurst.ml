type fit = {
  hurst : float;
  xs : float array;
  ys : float array;
  slope : float;
}

let block_grid ~n ~min_block ~max_block ~points =
  if max_block < min_block then
    invalid_arg "Hurst: series too short for the requested blocks";
  let raw =
    Lrd_numerics.Array_ops.logspace (float_of_int min_block)
      (float_of_int max_block) points
  in
  let sizes = Array.map (fun x -> max 1 (int_of_float (Float.round x))) raw in
  (* Deduplicate while preserving order. *)
  let seen = Hashtbl.create 16 in
  Array.to_list sizes
  |> List.filter (fun m ->
         if Hashtbl.mem seen m || m > n / 2 then false
         else begin
           Hashtbl.add seen m ();
           true
         end)
  |> Array.of_list

let aggregate a m =
  let n = Array.length a / m in
  Array.init n (fun b ->
      let acc = ref 0.0 in
      for i = b * m to ((b + 1) * m) - 1 do
        acc := !acc +. a.(i)
      done;
      !acc /. float_of_int m)

let variance_time_curve a ~block_sizes =
  let out = ref [] in
  Array.iter
    (fun m ->
      if m >= 1 && Array.length a / m >= 2 then begin
        let agg = aggregate a m in
        out := (m, Lrd_numerics.Array_ops.variance agg) :: !out
      end)
    block_sizes;
  Array.of_list (List.rev !out)

let fit_of_points points ~hurst_of_slope =
  let xs = Array.map fst points and ys = Array.map snd points in
  let slope, _ = Descriptive.linear_regression ~x:xs ~y:ys in
  { hurst = hurst_of_slope slope; xs; ys; slope }

let aggregated_variance ?(min_block = 4) ?max_block ?(points = 12) a =
  let n = Array.length a in
  if n < 8 * min_block then
    invalid_arg "Hurst.aggregated_variance: series too short";
  let max_block = Option.value max_block ~default:(n / 8) in
  let sizes = block_grid ~n ~min_block ~max_block ~points in
  let curve = variance_time_curve a ~block_sizes:sizes in
  let pts =
    Array.map
      (fun (m, v) -> (log (float_of_int m), log (Float.max v 1e-300)))
      curve
  in
  (* Var(X^(m)) ~ m^(2H-2): slope = 2H - 2. *)
  fit_of_points pts ~hurst_of_slope:(fun s -> 1.0 +. (s /. 2.0))

(* Rescaled adjusted range of one window. *)
let rs_statistic a pos len =
  let mean =
    Lrd_numerics.Summation.kahan_slice a ~pos ~len /. float_of_int len
  in
  let run = ref 0.0 and lo = ref 0.0 and hi = ref 0.0 in
  let var = ref 0.0 in
  for i = pos to pos + len - 1 do
    let d = a.(i) -. mean in
    run := !run +. d;
    if !run < !lo then lo := !run;
    if !run > !hi then hi := !run;
    var := !var +. (d *. d)
  done;
  let s = sqrt (!var /. float_of_int len) in
  if s = 0.0 then None else Some ((!hi -. !lo) /. s)

let rescaled_range ?(min_block = 8) ?max_block ?(points = 12) a =
  let n = Array.length a in
  if n < 4 * min_block then invalid_arg "Hurst.rescaled_range: series too short";
  let max_block = Option.value max_block ~default:(n / 4) in
  let sizes = block_grid ~n ~min_block ~max_block ~points in
  let pts = ref [] in
  Array.iter
    (fun m ->
      let windows = n / m in
      if windows >= 1 then begin
        let acc = ref 0.0 and count = ref 0 in
        for w = 0 to windows - 1 do
          match rs_statistic a (w * m) m with
          | Some rs ->
              acc := !acc +. rs;
              incr count
          | None -> ()
        done;
        if !count > 0 then
          pts :=
            (log (float_of_int m), log (!acc /. float_of_int !count)) :: !pts
      end)
    sizes;
  fit_of_points (Array.of_list (List.rev !pts)) ~hurst_of_slope:(fun s -> s)

let gph ?frequencies a =
  let n = Array.length a in
  if n < 16 then invalid_arg "Hurst.gph: series too short";
  (* Bin j holds I(w) at w = 2 pi (j + 1) / size. *)
  let { Spectral.frequencies = omega; power = spec; _ } =
    Spectral.periodogram a
  in
  let m =
    Option.value frequencies ~default:(int_of_float (sqrt (float_of_int n)))
  in
  let m = max 4 (min m (Array.length omega - 1)) in
  let pts = ref [] in
  for j = 0 to m - 1 do
    if spec.(j) > 0.0 then begin
      let x = log (4.0 *. Float.pow (sin (omega.(j) /. 2.0)) 2.0) in
      pts := (x, log spec.(j)) :: !pts
    end
  done;
  (* Slope = -d, H = d + 1/2. *)
  fit_of_points (Array.of_list (List.rev !pts)) ~hurst_of_slope:(fun s ->
      0.5 -. s)

type octave_point = {
  octave : int;
  log2_energy : float;
  coefficients : int;
  ci_low : float;
  ci_high : float;
}

(* Chi-squared quantile via the regularized incomplete gamma:
   chi2(k) = 2 Gamma(k/2)-distributed; invert P(k/2, x/2) = p. *)
let chi2_quantile ~df p =
  let a = float_of_int df /. 2.0 in
  let cdf x = Lrd_numerics.Special.gamma_p ~a ~x:(x /. 2.0) in
  let hi = ref (Float.max 4.0 (2.0 *. float_of_int df)) in
  while cdf !hi < p do
    hi := !hi *. 2.0
  done;
  Lrd_numerics.Roots.bisection ~f:(fun x -> cdf x -. p) ~lo:0.0 ~hi:!hi ()

let boundary_drop = function
  | Lrd_numerics.Wavelet.Haar -> 0
  | Lrd_numerics.Wavelet.Daubechies4 -> 3

let octave_energies ~wavelet ~min_octave ~max_octave a =
  let decomposition =
    Lrd_numerics.Wavelet.decompose ~max_level:max_octave wavelet a
  in
  let drop = boundary_drop wavelet in
  let points = ref [] in
  Array.iteri
    (fun idx details ->
      let octave = idx + 1 in
      let details =
        let count = Array.length details in
        if count > drop then Array.sub details 0 (count - drop) else [||]
      in
      let count = Array.length details in
      if octave >= min_octave && count >= 4 then begin
        let energy = Lrd_numerics.Wavelet.energy details in
        if energy > 0.0 then points := (octave, energy, count) :: !points
      end)
    decomposition.Lrd_numerics.Wavelet.details;
  Array.of_list (List.rev !points)

let logscale_diagram ?(wavelet = Lrd_numerics.Wavelet.Daubechies4)
    ?(min_octave = 1) ?(max_octave = max_int) a =
  if Array.length a < 32 then
    invalid_arg "Hurst.logscale_diagram: series too short";
  Array.map
    (fun (octave, energy, count) ->
      (* n mu / E[d^2] ~ chi2(n): invert for the band on log2 E[d^2]. *)
      let n = float_of_int count in
      let lo_q = chi2_quantile ~df:count 0.025 in
      let hi_q = chi2_quantile ~df:count 0.975 in
      {
        octave;
        log2_energy = Float.log2 energy;
        coefficients = count;
        ci_low = Float.log2 (n *. energy /. hi_q);
        ci_high = Float.log2 (n *. energy /. lo_q);
      })
    (octave_energies ~wavelet ~min_octave ~max_octave a)

(* The periodic transform wraps the series end around to its start; for
   filters longer than Haar the wrap contaminates the trailing
   coefficients of every octave (the contamination width has fixed point
   (c + L - 1) / 2, i.e. 3 for the 4-tap filter).  [octave_energies]
   excludes those coefficients, so a boundary mismatch (e.g. a trend)
   cannot leak into the energies. *)
let abry_veitch ?(wavelet = Lrd_numerics.Wavelet.Daubechies4)
    ?(weighted = true) ?(min_octave = 1) ?max_octave a =
  let n = Array.length a in
  if n < 32 then invalid_arg "Hurst.abry_veitch: series too short";
  let max_octave = Option.value max_octave ~default:max_int in
  let pts = octave_energies ~wavelet ~min_octave ~max_octave a in
  let xs = Array.map (fun (o, _, _) -> float_of_int o) pts in
  let ys = Array.map (fun (_, e, _) -> Float.log2 e) pts in
  let slope, _ =
    if weighted then
      (* Var(log2 energy) ~ 2 / (count ln^2 2): weight by count. *)
      Descriptive.weighted_linear_regression ~x:xs ~y:ys
        ~w:(Array.map (fun (_, _, c) -> float_of_int c) pts)
    else Descriptive.linear_regression ~x:xs ~y:ys
  in
  (* log2 E[d_j^2] ~ j (2H - 1) + const. *)
  { hurst = (slope +. 1.0) /. 2.0; xs; ys; slope }
