type layer = { rate : float; eigenvalue : float }
type t = { base_rate : float; layers : layer array }

let create ~base_rate ~layers =
  if Array.length layers = 0 then invalid_arg "Multiscale.create: no layers";
  if not (base_rate >= 0.0) then
    invalid_arg "Multiscale.create: negative base rate";
  Array.iter
    (fun l ->
      if not (l.rate >= 0.0) then
        invalid_arg "Multiscale.create: negative layer rate";
      if not (l.eigenvalue >= 0.0 && l.eigenvalue < 1.0) then
        invalid_arg "Multiscale.create: eigenvalue outside [0, 1)")
    layers;
  { base_rate; layers }

let layers t = Array.copy t.layers

let autocorrelation t ~lag =
  if lag < 0 then invalid_arg "Multiscale.autocorrelation: negative lag";
  let num = ref 0.0 and den = ref 0.0 in
  Array.iter
    (fun l ->
      let v = l.rate *. l.rate /. 4.0 in
      num := !num +. (v *. (l.eigenvalue ** float_of_int lag));
      den := !den +. v)
    t.layers;
  if !den = 0.0 then 0.0 else !num /. !den

let fit_power_law ~mean ~variance ~hurst ~horizon ?(layers = 5) () =
  if not (mean > 0.0) then invalid_arg "Multiscale.fit_power_law: mean <= 0";
  if not (variance > 0.0) then
    invalid_arg "Multiscale.fit_power_law: variance <= 0";
  if not (hurst > 0.5 && hurst < 1.0) then
    invalid_arg "Multiscale.fit_power_law: hurst outside (0.5, 1)";
  if horizon < 2 then invalid_arg "Multiscale.fit_power_law: horizon < 2";
  if layers < 1 then invalid_arg "Multiscale.fit_power_law: layers < 1";
  (* Time constants geometric on [1, horizon]; the continuous identity
     int tau^(2H-3) e^(-t/tau) tau dln(tau) ~ t^(2H-2) says the variance
     share of the layer at time constant tau goes like tau^(2H-2). *)
  let exponent = (2.0 *. hurst) -. 2.0 in
  let taus =
    if layers = 1 then [| float_of_int horizon |]
    else
      Array.init layers (fun k ->
          Float.exp
            (log (float_of_int horizon)
            *. (float_of_int k /. float_of_int (layers - 1))))
  in
  let shares = Array.map (fun tau -> tau ** exponent) taus in
  let total_share = Lrd_numerics.Summation.kahan shares in
  let layer_array =
    Array.mapi
      (fun k tau ->
        let v = variance *. shares.(k) /. total_share in
        { rate = 2.0 *. sqrt v; eigenvalue = exp (-1.0 /. tau) })
      taus
  in
  let on_mean =
    Array.fold_left (fun acc l -> acc +. (l.rate /. 2.0)) 0.0 layer_array
  in
  if on_mean > mean then
    invalid_arg
      "Multiscale.fit_power_law: variance too large for the mean (negative \
       base rate)";
  create ~base_rate:(mean -. on_mean) ~layers:layer_array

let generate t rng ~slots ~slot =
  if slots <= 0 then invalid_arg "Multiscale.generate: slots must be positive";
  let n_layers = Array.length t.layers in
  (* Symmetric two-state layer with eigenvalue e: stay probability
     (1 + e) / 2. *)
  let states = Array.init n_layers (fun _ -> Lrd_rng.Rng.bool rng) in
  let rates =
    Array.init slots (fun _ ->
        let rate = ref t.base_rate in
        for k = 0 to n_layers - 1 do
          if states.(k) then rate := !rate +. t.layers.(k).rate;
          let stay = (1.0 +. t.layers.(k).eigenvalue) /. 2.0 in
          if Lrd_rng.Rng.float rng >= stay then states.(k) <- not states.(k)
        done;
        !rate)
  in
  Lrd_trace.Trace.create ~rates ~slot
