(* Timing, order statistics, digests and the Obs snapshot readers shared
   by the workloads and the traced ledger. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let sum = List.fold_left ( +. ) 0.0

(* The highest percentile with at least ten samples beyond it: the
   11th-largest sample, reported with its percentile rank.  With ten
   samples or fewer it degrades to the maximum. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n <= 10 then (a.(n - 1), 100.0)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

let md5 s = Digest.to_hex (Digest.string s)

(* Wall time of [f] under a fresh Gc counter window: returns the value,
   seconds, minor words and major collections. *)
let gc_timed f =
  let g0 = Gc.quick_stat () in
  let v, dt = timed f in
  let g1 = Gc.quick_stat () in
  ( v,
    dt,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_collections - g0.Gc.major_collections )

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

module Obs = Lrd_obs.Obs

let counter snap name =
  match Obs.find snap name with
  | Some (Obs.Counter { total; _ }) -> total
  | _ -> 0

let histogram_sum snap name =
  match Obs.find snap name with
  | Some (Obs.Histogram h) -> h.Obs.sum
  | _ -> 0.0

(* Runs [f] with telemetry on and every instrument zeroed first, and
   returns its value, wall time and the snapshot taken right after. *)
let with_telemetry f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let v, dt = timed f in
      (v, dt, Obs.snapshot ()))

(* A float accumulator safe to add to from pool workers. *)
module Acc = struct
  type t = { lock : Mutex.t; mutable total : float }

  let create () = { lock = Mutex.create (); total = 0.0 }
  let add t x = Mutex.protect t.lock (fun () -> t.total <- t.total +. x)
  let total t = t.total

  let time t f =
    let v, dt = timed f in
    add t dt;
    v
end
