let phase_randomized_surrogate rng a =
  let n = Array.length a in
  if n < 4 then invalid_arg "Stationarity: series too short";
  let mean = Lrd_numerics.Array_ops.mean a in
  let size = Lrd_numerics.Fft.next_power_of_two n in
  let half = size / 2 in
  let re = Array.make (half + 1) 0.0 and im = Array.make (half + 1) 0.0 in
  Spectral.half_spectrum ~size a ~re ~im;
  (* Keep each bin's magnitude and draw fresh phases; the half-spectrum
     implies the conjugate-symmetric upper half, so the inverse is real. *)
  let assign k phase =
    let magnitude = sqrt ((re.(k) *. re.(k)) +. (im.(k) *. im.(k))) in
    re.(k) <- magnitude *. cos phase;
    im.(k) <- magnitude *. sin phase
  in
  assign 0 0.0;
  assign half 0.0;
  for k = 1 to half - 1 do
    assign k (2.0 *. Float.pi *. Lrd_rng.Rng.float rng)
  done;
  let out = Array.make n 0.0 in
  Lrd_numerics.Fft.Real.inverse_ip
    (Lrd_numerics.Fft.Real.cached_plan size)
    ~spec_re:re ~spec_im:im ~signal:out ~len:n;
  Array.map (fun x -> x +. mean) out

type cusum_result = {
  statistic : float;
  change_point : int;
  critical_5pct : float;
}

let cusum a =
  let n = Array.length a in
  if n < 16 then invalid_arg "Stationarity.cusum: series too short";
  let sigma = Descriptive.std a in
  if sigma = 0.0 then invalid_arg "Stationarity.cusum: constant series";
  let total = Lrd_numerics.Array_ops.sum a in
  let running = Lrd_numerics.Summation.create () in
  let best = ref 0.0 and best_k = ref 0 in
  Array.iteri
    (fun i x ->
      Lrd_numerics.Summation.add running x;
      let k = float_of_int (i + 1) in
      let bridge =
        Float.abs
          (Lrd_numerics.Summation.total running
          -. (k /. float_of_int n *. total))
      in
      if bridge > !best then begin
        best := bridge;
        best_k := i + 1
      end)
    a;
  {
    statistic = !best /. (sigma *. sqrt (float_of_int n));
    change_point = !best_k;
    critical_5pct = 1.358;
  }

let split_half_mean_shift ?(batches = 8) a =
  let n = Array.length a in
  let half = n / 2 in
  let first = Array.sub a 0 half and second = Array.sub a half half in
  let i1 = Batch_means.mean_interval ~batches ~confidence:0.68 first in
  let i2 = Batch_means.mean_interval ~batches ~confidence:0.68 second in
  (* 68% half-width is one standard error (z ~ 1). *)
  let se1 = i1.Batch_means.half_width and se2 = i2.Batch_means.half_width in
  let se = sqrt ((se1 *. se1) +. (se2 *. se2)) in
  if se = 0.0 then 0.0
  else (i2.Batch_means.estimate -. i1.Batch_means.estimate) /. se
