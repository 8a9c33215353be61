type estimate = {
  frequencies : float array;
  power : float array;
}

let half_spectrum ~size data ~re ~im =
  let mean = Lrd_numerics.Array_ops.mean data in
  Lrd_numerics.Fft.Real.forward_ip
    (Lrd_numerics.Fft.Real.cached_plan size)
    ~signal:(Array.map (fun x -> x -. mean) data)
    ~len:(Array.length data) ~spec_re:re ~spec_im:im

(* Fourier frequencies 2 pi k / size for k = 1 .. size/2. *)
let fourier_frequencies size =
  Array.init (size / 2) (fun j ->
      2.0 *. Float.pi *. float_of_int (j + 1) /. float_of_int size)

let periodogram data =
  let n = Array.length data in
  if n < 8 then invalid_arg "Spectral.periodogram: series too short";
  let size = Lrd_numerics.Fft.next_power_of_two n in
  let half = size / 2 in
  let re = Array.make (half + 1) 0.0 and im = Array.make (half + 1) 0.0 in
  half_spectrum ~size data ~re ~im;
  let norm = 2.0 *. Float.pi *. float_of_int n in
  {
    frequencies = fourier_frequencies size;
    power =
      Array.init half (fun j ->
          let k = j + 1 in
          ((re.(k) *. re.(k)) +. (im.(k) *. im.(k))) /. norm);
  }

(* Paxson's approximation: the fGn spectrum is
   c_H (|w|^(-2H-1) aliased over 2 pi k shifts); three explicit terms
   plus an integral tail correction. *)
let fgn_spectrum ~hurst w =
  if not (hurst > 0.0 && hurst < 1.0) then
    invalid_arg "Spectral.fgn_spectrum: hurst must lie in (0, 1)";
  if not (w > 0.0 && w <= Float.pi) then
    invalid_arg "Spectral.fgn_spectrum: frequency must lie in (0, pi]";
  let h2 = (2.0 *. hurst) +. 1.0 in
  let c =
    (* Normalization for unit variance:
       c_H = sin(pi H) Gamma(2H + 1) / (2 pi) ... folded below; the
       estimator comparisons only need proportionality, but the exact
       constant makes the tests sharper. *)
    sin (Float.pi *. hurst)
    *. exp (Lrd_numerics.Special.log_gamma ((2.0 *. hurst) +. 1.0))
    /. (2.0 *. Float.pi)
  in
  let b k =
    let t = (2.0 *. Float.pi *. float_of_int k) +. w in
    Float.abs t ** -.h2
  and b' k =
    let t = (2.0 *. Float.pi *. float_of_int k) -. w in
    Float.abs t ** -.h2
  in
  let direct = (b 0) +. (b 1) +. (b 2) +. (b' 1) +. (b' 2) in
  (* Tail: sum_{k>=3} ~ integral correction (Paxson). *)
  let tail =
    let a3 = (2.0 *. Float.pi *. 3.0) +. w
    and a3' = (2.0 *. Float.pi *. 3.0) -. w in
    ((a3 ** (1.0 -. h2)) +. (a3' ** (1.0 -. h2)))
    /. (8.0 *. hurst *. Float.pi)
  in
  let shape = 2.0 *. (1.0 -. cos w) in
  c *. shape *. (direct +. tail)

let farima_spectrum ~d w =
  if not (d >= 0.0 && d < 0.5) then
    invalid_arg "Spectral.farima_spectrum: d must lie in [0, 0.5)";
  if not (w > 0.0 && w <= Float.pi) then
    invalid_arg "Spectral.farima_spectrum: frequency must lie in (0, pi]";
  ((2.0 *. sin (w /. 2.0)) ** (-2.0 *. d)) /. (2.0 *. Float.pi)
