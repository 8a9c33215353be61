(* Fig. 6: external shuffling destroys correlation beyond the block
   length while preserving it inside blocks (and preserving the marginal
   exactly).  Rendered as the empirical autocorrelation of the MTV-like
   trace before and after shuffling, around the block boundary. *)

let id = "fig6"
let title = "Fig. 6: external shuffling kills correlation beyond the block"

let run ctx fmt =
  let trace = Data.mtv ctx in
  let block = 128 in
  let rng = Lrd_rng.Rng.create ~seed:(Int64.add (Data.seed ctx) 6L) in
  let shuffled = Lrd_trace.Shuffle.external_shuffle rng trace ~block in
  let max_lag = min (4 * block) (Lrd_trace.Trace.length trace / 4) in
  let acf rates = Lrd_stats.Autocorr.autocorrelation rates ~max_lag in
  let acf_orig = acf trace.Lrd_trace.Trace.rates in
  let acf_shuf = acf shuffled.Lrd_trace.Trace.rates in
  let lags =
    [| 1; 2; 4; 8; 16; 32; 64; 96; 128; 160; 256; 384; 512 |]
    |> Array.to_list
    |> List.filter (fun l -> l <= max_lag)
    |> Array.of_list
  in
  Table.heading fmt title;
  Format.fprintf fmt "MTV-like trace, block = %d samples (%.3g s)@." block
    (float_of_int block *. trace.Lrd_trace.Trace.slot);
  Table.print_multi_series fmt ~title:"autocorrelation by lag"
    ~xlabel:"lag" ~ylabel:"acf"
    ~xs:(Array.map float_of_int lags)
    [
      ("original", Array.map (fun l -> acf_orig.(l)) lags);
      ("shuffled", Array.map (fun l -> acf_shuf.(l)) lags);
    ]
