type fit = {
  hurst : float;
  memory : float;
  frequencies : int;
  objective : float;
}

(* Golden-section search for the minimum of a unimodal function. *)
let golden_minimize ~f ~lo ~hi ~eps =
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let a = ref lo and b = ref hi in
  let c = ref (hi -. (phi *. (hi -. lo))) in
  let d = ref (lo +. (phi *. (hi -. lo))) in
  let fc = ref (f !c) and fd = ref (f !d) in
  while !b -. !a > eps do
    if !fc < !fd then begin
      (* Minimum in [a, d]: d becomes the right edge, c the new d. *)
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (phi *. (!b -. !a));
      fc := f !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (phi *. (!b -. !a));
      fd := f !d
    end
  done;
  (!a +. !b) /. 2.0

let local_whittle ?frequencies a =
  let n = Array.length a in
  if n < 64 then invalid_arg "Whittle.local_whittle: series too short";
  let { Spectral.frequencies = omega; power = spectrum; _ } =
    Spectral.periodogram a
  in
  let m =
    let requested =
      Option.value frequencies ~default:(int_of_float (float_of_int n ** 0.65))
    in
    max 8 (min requested (Array.length spectrum - 1))
  in
  let log_omega = Array.init m (fun j -> log omega.(j)) in
  let mean_log_omega =
    Lrd_numerics.Summation.kahan_slice log_omega ~pos:0 ~len:m
    /. float_of_int m
  in
  (* Robinson's profile objective R(d). *)
  let objective d =
    let acc = Lrd_numerics.Summation.create () in
    for j = 0 to m - 1 do
      Lrd_numerics.Summation.add acc
        (exp (2.0 *. d *. log_omega.(j)) *. Float.max spectrum.(j) 1e-300)
    done;
    log (Lrd_numerics.Summation.total acc /. float_of_int m)
    -. (2.0 *. d *. mean_log_omega)
  in
  let memory = golden_minimize ~f:objective ~lo:(-0.49) ~hi:0.99 ~eps:1e-8 in
  {
    hurst = memory +. 0.5;
    memory;
    frequencies = m;
    objective = objective memory;
  }
