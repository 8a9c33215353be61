type source = {
  peak_rate : float;
  on : Lrd_dist.Interarrival.t;
  off : Lrd_dist.Interarrival.t;
}

let source ~peak_rate ~on ~off =
  if not (peak_rate > 0.0) then
    invalid_arg "Onoff.source: peak rate must be positive";
  { peak_rate; on; off }

let pareto_source ~peak_rate ~mean_on ~mean_off ~alpha_on ~alpha_off =
  let period mean alpha =
    Lrd_dist.Interarrival.truncated_pareto
      ~theta:(mean *. (alpha -. 1.0))
      ~alpha ~cutoff:Float.infinity
  in
  source ~peak_rate ~on:(period mean_on alpha_on)
    ~off:(period mean_off alpha_off)

let expected_mean_rate sources =
  List.fold_left
    (fun acc s ->
      let on = s.on.Lrd_dist.Interarrival.mean
      and off = s.off.Lrd_dist.Interarrival.mean in
      acc +. (s.peak_rate *. on /. (on +. off)))
    0.0 sources

(* Deposit [rate] over the real-time interval [t0, t1) into the slot
   bins, splitting across slot boundaries. *)
let deposit work t0 t1 rate ~slot ~slots =
  let t0 = Float.max 0.0 t0 and t1 = Float.min (float_of_int slots *. slot) t1 in
  if t1 > t0 then begin
    let first = int_of_float (t0 /. slot) in
    let last = min (slots - 1) (int_of_float ((t1 -. 1e-12) /. slot)) in
    for b = first to last do
      let lo = Float.max t0 (float_of_int b *. slot) in
      let hi = Float.min t1 (float_of_int (b + 1) *. slot) in
      if hi > lo then work.(b) <- work.(b) +. (rate *. (hi -. lo))
    done
  end

let generate rng ~sources ~slots ~slot =
  if sources = [] then invalid_arg "Onoff.generate: no sources";
  if slots <= 0 then invalid_arg "Onoff.generate: slots must be positive";
  if not (slot > 0.0) then invalid_arg "Onoff.generate: slot must be positive";
  let horizon = float_of_int slots *. slot in
  let work = Array.make slots 0.0 in
  List.iter
    (fun s ->
      let on_mean = s.on.Lrd_dist.Interarrival.mean
      and off_mean = s.off.Lrd_dist.Interarrival.mean in
      let start_on =
        Lrd_rng.Rng.float rng < on_mean /. (on_mean +. off_mean)
      in
      (* Alternate ON/OFF periods until the horizon is covered.  The
         initial period is sampled from the ordinary (not residual)
         distribution; the bias is negligible for traces much longer
         than a period, which all callers ensure. *)
      let t = ref 0.0 and on = ref start_on in
      while !t < horizon do
        let d =
          if !on then s.on.Lrd_dist.Interarrival.sample rng
          else s.off.Lrd_dist.Interarrival.sample rng
        in
        let d = Float.max d 1e-12 in
        if !on then deposit work !t (!t +. d) s.peak_rate ~slot ~slots;
        t := !t +. d;
        on := not !on
      done)
    sources;
  for i = 0 to slots - 1 do
    work.(i) <- work.(i) /. slot
  done;
  Trace.create ~rates:work ~slot
