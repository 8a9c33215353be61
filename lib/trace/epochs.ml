let run_lengths h trace =
  let rates = trace.Trace.rates in
  let n = Array.length rates in
  let runs = ref [] in
  let current_bin = ref (Histogram.bin_index h rates.(0)) in
  let current_len = ref 1 in
  for i = 1 to n - 1 do
    let b = Histogram.bin_index h rates.(i) in
    if b = !current_bin then incr current_len
    else begin
      runs := !current_len :: !runs;
      current_bin := b;
      current_len := 1
    end
  done;
  runs := !current_len :: !runs;
  Array.of_list (List.rev !runs)

(* The runs partition the trace, so their mean is the sample count over
   the run count: no run list is built. *)
let mean_run_length h trace =
  let rates = trace.Trace.rates in
  float_of_int (Array.length rates) /. float_of_int (Histogram.run_count h rates)

let mean_epoch_duration ?bins trace =
  let h = Histogram.of_trace ?bins trace in
  mean_run_length h trace *. trace.Trace.slot
