type t = {
  edges : float array;
  counts : int array;
  bin_means : float array;
}

let of_trace ?(bins = 50) trace =
  if bins <= 0 then invalid_arg "Histogram.of_trace: bins must be positive";
  let rates = trace.Trace.rates in
  let lo = Lrd_numerics.Array_ops.min_element rates in
  let hi = Lrd_numerics.Array_ops.max_element rates in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
  let edges =
    Array.init (bins + 1) (fun i -> lo +. (float_of_int i *. width))
  in
  let counts = Array.make bins 0 in
  let sums = Array.make bins 0.0 in
  for i = 0 to Array.length rates - 1 do
    let r = rates.(i) in
    let b = min (bins - 1) (int_of_float ((r -. lo) /. width)) in
    let b = max 0 b in
    counts.(b) <- counts.(b) + 1;
    sums.(b) <- sums.(b) +. r
  done;
  let bin_means =
    Array.init bins (fun b ->
        if counts.(b) > 0 then sums.(b) /. float_of_int counts.(b) else 0.0)
  in
  { edges; counts; bin_means }

let to_marginal h =
  let atoms = ref [] in
  Array.iteri
    (fun b c ->
      if c > 0 then atoms := (h.bin_means.(b), float_of_int c) :: !atoms)
    h.counts;
  Lrd_dist.Marginal.of_points (List.rev !atoms)

let marginal_of_trace ?bins trace = to_marginal (of_trace ?bins trace)

(* Inlined into [run_count], so its scan boxes no rate. *)
let[@inline] bin_index h rate =
  let bins = Array.length h.counts in
  let lo = h.edges.(0) and hi = h.edges.(bins) in
  let width = (hi -. lo) /. float_of_int bins in
  if width <= 0.0 then 0
  else max 0 (min (bins - 1) (int_of_float ((rate -. lo) /. width)))

let run_count h rates =
  let runs = ref 1 in
  let current = ref (bin_index h rates.(0)) in
  for i = 1 to Array.length rates - 1 do
    let b = bin_index h rates.(i) in
    if b <> !current then begin
      incr runs;
      current := b
    end
  done;
  !runs
