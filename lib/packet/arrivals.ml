type packet = { time : float; size : float }

let check_size packet_size =
  if not (packet_size > 0.0) then
    invalid_arg "Arrivals: packet_size must be positive"

let poisson rng mean =
  if mean > 500.0 then
    max 0
      (int_of_float
         (Float.round (Lrd_rng.Sampler.normal rng ~mean ~std:(sqrt mean))))
  else begin
    let limit = exp (-.mean) in
    let rec go k p =
      let p = p *. Lrd_rng.Rng.float_pos rng in
      if p <= limit then k else go (k + 1) p
    in
    go 0 1.0
  end

let poissonize rng trace ~packet_size =
  check_size packet_size;
  let slot = trace.Lrd_trace.Trace.slot in
  let rates = trace.Lrd_trace.Trace.rates in
  let slot_packets i =
    let mean = rates.(i) *. slot /. packet_size in
    let n = if mean > 0.0 then poisson rng mean else 0 in
    let t0 = float_of_int i *. slot in
    let times =
      Array.init n (fun _ -> t0 +. (Lrd_rng.Rng.float rng *. slot))
    in
    Array.sort Float.compare times;
    Array.to_seq times |> Seq.map (fun time -> { time; size = packet_size })
  in
  Seq.concat_map slot_packets (Seq.init (Array.length rates) Fun.id)

let count s = Seq.fold_left (fun acc _ -> acc + 1) 0 s
