(* The solve-cold input list, drawn from the seed before anything is
   timed.  Each (trace, cutoff) group covers a grid of utilization x
   log-buffer strata with one uniform draw inside each stratum, so every
   seed covers the same regions of the input space — the hard corner of
   high utilization and deep buffers included — and the latency
   distribution stays comparable across seeds. *)

module D = Lrd_experiments.Data
module Rng = Lrd_rng.Rng

type trace = Mtv | Bellcore

type t = {
  trace : trace;
  cutoff : float;
  utilization : float;
  buffer_seconds : float;
}

let utilization_range = function Mtv -> (0.6, 0.85) | Bellcore -> (0.3, 0.6)
let buffer_range = (0.01, 5.0)

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [u_strata * b_strata] solves for each trace and cutoff, shuffled.
   Each is drawn within [jitter] stratum widths around its stratum's
   centre. *)
let jitter = 0.02

let generate ~seed ~u_strata ~b_strata =
  let rng = Rng.create ~seed in
  let draw k strata lo hi =
    let at = float_of_int k +. 0.5 +. (jitter *. (Rng.float rng -. 0.5)) in
    lo +. (at /. float_of_int strata *. (hi -. lo))
  in
  let group trace cutoff =
    let ulo, uhi = utilization_range trace in
    let blo, bhi = buffer_range in
    Array.init (u_strata * b_strata) (fun k ->
        let utilization = draw (k mod u_strata) u_strata ulo uhi in
        let buffer_seconds = exp (draw (k / u_strata) b_strata (log blo) (log bhi)) in
        { trace; cutoff; utilization; buffer_seconds })
  in
  let all =
    Array.concat
      (List.concat_map
         (fun trace ->
           List.map (group trace)
             (Array.to_list (Lrd_experiments.Sweep.cutoffs ~quick:false ())))
         [ Mtv; Bellcore ])
  in
  Array.map (fun i -> all.(i)) (permutation rng (Array.length all))

let to_string i =
  Printf.sprintf "%s %h %h %h"
    (match i.trace with Mtv -> "mtv" | Bellcore -> "bellcore")
    i.cutoff i.utilization i.buffer_seconds

let digest inputs =
  Util.md5 (String.concat "\n" (Array.to_list (Array.map to_string inputs)))

let model ctx i =
  match i.trace with
  | Mtv -> D.mtv_model ctx ~cutoff:i.cutoff
  | Bellcore -> D.bc_model ctx ~cutoff:i.cutoff

(* One certified solve the way [lrd solve] runs it: fresh model and
   workload, default parameters, no cache, no warm start. *)
let solve ctx i =
  Lrd_core.Solver.solve_utilization (model ctx i) ~utilization:i.utilization
    ~buffer_seconds:i.buffer_seconds

let zero_buffer_loss ctx i =
  Surfaces.zero_buffer_loss (model ctx i) ~utilization:i.utilization
