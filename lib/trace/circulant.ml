(* Planned Davies-Harte synthesis.  The spectral draw writes

     a_0      = sqrt (lambda_0 / m)        g
     a_{m/2}  = sqrt (lambda_{m/2} / m)    g
     a_k      = sqrt (lambda_k / 2m) (g1 + i g2),   a_{m-k} = conj a_k

   and the unnormalized synthesis y_j = sum_k a_k exp (-2 i pi j k / m)
   of that Hermitian spectrum yields [n] exact samples.  The spectrum is
   Hermitian by construction, so only the half [a_0 .. a_{m/2}] is ever
   materialized and the synthesis costs ONE complex transform of size
   m/2 ({!Lrd_numerics.Fft.Real.synthesize_ip}) instead of the full-size
   complex transform the first planned engine ran.  Everything left of
   the Gaussians is draw-independent and lives in the plan; the scale
   table stores the already-rooted factors, and the Gaussian consumption
   order is unchanged, so draws from one RNG state remain deterministic
   across the complex -> real engine switch points of the code base. *)

type t = {
  n : int;
  m : int;
  half : int;
  rfft : Lrd_numerics.Fft.Real.t;
  scale : float array;  (* length half + 1: rooted eigenvalue factors *)
  are : float array;  (* half-spectrum scratch, length half + 1 *)
  aim : float array;
}

let embedding_half ~n =
  if n <= 0 then invalid_arg "Circulant.embedding_half: n must be positive";
  Lrd_numerics.Fft.next_power_of_two (2 * n) / 2

let make ~name ~acv ~tol ~n =
  if n <= 0 then invalid_arg "Circulant.make: n must be positive";
  let m = Lrd_numerics.Fft.next_power_of_two (2 * n) in
  let half = m / 2 in
  let rfft = Lrd_numerics.Fft.Real.make_plan m in
  (* First row of the circulant embedding of the covariance matrix. *)
  let c = Array.make m 0.0 in
  for k = 0 to m - 1 do
    let lag = if k <= half then k else m - k in
    c.(k) <- acv lag
  done;
  (* Eigenvalues of the circulant; nonnegative up to rounding for the
     processes used here.  The embedding is real-even, so the spectrum
     is real and symmetric: the independent bins [0 .. half] carry every
     distinct eigenvalue, which is exactly what the real transform
     produces. *)
  let ere = Array.make (half + 1) 0.0 and eim = Array.make (half + 1) 0.0 in
  Lrd_numerics.Fft.Real.forward_ip rfft ~signal:c ~len:m ~spec_re:ere
    ~spec_im:eim;
  Array.iter
    (fun v ->
      if v < -.tol then
        invalid_arg (name ^ ": embedding not nonnegative definite"))
    ere;
  let eigen k = Float.max ere.(k) 0.0 in
  let fm = float_of_int m in
  let scale =
    Array.init (half + 1) (fun k ->
        if k = 0 || k = half then sqrt (eigen k /. fm)
        else sqrt (eigen k /. (2.0 *. fm)))
  in
  {
    n;
    m;
    half;
    rfft;
    scale;
    are = Array.make (half + 1) 0.0;
    aim = Array.make (half + 1) 0.0;
  }

let draw t rng ~dst =
  if Array.length dst < t.n then invalid_arg "Circulant.draw: dst too short";
  let are = t.are and aim = t.aim and scale = t.scale in
  let half = t.half in
  let gaussian () = Lrd_rng.Sampler.normal rng ~mean:0.0 ~std:1.0 in
  are.(0) <- scale.(0) *. gaussian ();
  aim.(0) <- 0.0;
  are.(half) <- scale.(half) *. gaussian ();
  aim.(half) <- 0.0;
  for k = 1 to half - 1 do
    let s = Array.unsafe_get scale k in
    let g1 = gaussian () and g2 = gaussian () in
    Array.unsafe_set are k (s *. g1);
    Array.unsafe_set aim k (s *. g2)
  done;
  Lrd_numerics.Fft.Real.synthesize_ip t.rfft ~spec_re:are ~spec_im:aim
    ~signal:dst ~len:t.n

let generate t rng =
  let dst = Array.make t.n 0.0 in
  draw t rng ~dst;
  dst
