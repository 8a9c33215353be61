type t = { rates : float array; transition : float array array }

let create ~rates ~transition =
  let n = Array.length rates in
  if n = 0 then invalid_arg "Markov_chain.create: empty chain";
  if Array.length transition <> n then
    invalid_arg "Markov_chain.create: transition matrix dimension mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "Markov_chain.create: transition matrix is not square";
      let total = Lrd_numerics.Summation.kahan row in
      Array.iter
        (fun p ->
          if not (p >= 0.0) then
            invalid_arg "Markov_chain.create: negative transition probability")
        row;
      if Float.abs (total -. 1.0) > 1e-9 then
        invalid_arg "Markov_chain.create: rows must sum to one")
    transition;
  { rates; transition }

let fit_from_trace ?(bins = 50) trace =
  if bins <= 0 then
    invalid_arg "Markov_chain.fit_from_trace: bins must be positive";
  let hist = Lrd_trace.Histogram.of_trace ~bins trace in
  let samples = trace.Lrd_trace.Trace.rates in
  let n = Array.length samples in
  (* Map occupied bins to dense state indices. *)
  let state_of_bin = Array.make bins (-1) in
  let states = ref [] in
  Array.iteri
    (fun b c ->
      if c > 0 then begin
        state_of_bin.(b) <- List.length !states;
        states := hist.Lrd_trace.Histogram.bin_means.(b) :: !states
      end)
    hist.Lrd_trace.Histogram.counts;
  let rates = Array.of_list (List.rev !states) in
  let k = Array.length rates in
  let counts = Array.make_matrix k k 0 in
  for i = 0 to n - 2 do
    let from_state =
      state_of_bin.(Lrd_trace.Histogram.bin_index hist samples.(i))
    in
    let to_state =
      state_of_bin.(Lrd_trace.Histogram.bin_index hist samples.(i + 1))
    in
    counts.(from_state).(to_state) <- counts.(from_state).(to_state) + 1
  done;
  let transition =
    Array.mapi
      (fun s row ->
        let total = Array.fold_left ( + ) 0 row in
        if total = 0 then
          (* Only seen as the last sample: self-loop. *)
          Array.init k (fun j -> if j = s then 1.0 else 0.0)
        else
          Array.map (fun c -> float_of_int c /. float_of_int total) row)
      counts
  in
  create ~rates ~transition

let size t = Array.length t.rates
let rates t = Array.copy t.rates
let transition t = Array.map Array.copy t.transition

(* Row vector times transition matrix. *)
let apply t v =
  let n = size t in
  Array.init n (fun j ->
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (v.(i) *. t.transition.(i).(j))
      done;
      !acc)

let stationary t =
  let n = size t in
  let v = ref (Array.make n (1.0 /. float_of_int n)) in
  let converged = ref false in
  let steps = ref 0 in
  while (not !converged) && !steps < 100_000 do
    let v' = apply t !v in
    let delta =
      Array.fold_left Float.max 0.0
        (Array.mapi (fun i x -> Float.abs (x -. !v.(i))) v')
    in
    v := v';
    incr steps;
    if delta < 1e-14 then converged := true
  done;
  if not !converged then
    failwith "Markov_chain.stationary: power iteration did not converge";
  !v

let mean_rate t =
  let pi = stationary t in
  let acc = ref 0.0 in
  Array.iteri (fun i p -> acc := !acc +. (p *. t.rates.(i))) pi;
  !acc

let rate_variance t =
  let pi = stationary t in
  let mu = mean_rate t in
  let acc = ref 0.0 in
  Array.iteri
    (fun i p ->
      let d = t.rates.(i) -. mu in
      acc := !acc +. (p *. d *. d))
    pi;
  !acc

let autocorrelation t ~lag =
  if lag < 0 then invalid_arg "Markov_chain.autocorrelation: negative lag";
  let variance = rate_variance t in
  if variance <= 0.0 then
    invalid_arg "Markov_chain.autocorrelation: degenerate chain";
  let pi = stationary t in
  let mu = mean_rate t in
  (* v = pi .* rates, pushed forward lag steps, dotted with rates. *)
  let v = ref (Array.mapi (fun i p -> p *. t.rates.(i)) pi) in
  for _ = 1 to lag do
    v := apply t !v
  done;
  let second = ref 0.0 in
  Array.iteri (fun i x -> second := !second +. (x *. t.rates.(i))) !v;
  (!second -. (mu *. mu)) /. variance

let generate t rng ~slots ~slot =
  if slots <= 0 then invalid_arg "Markov_chain.generate: slots must be positive";
  let pi = stationary t in
  let initial_table = Lrd_rng.Sampler.discrete_of_weights pi in
  let row_tables =
    Array.map Lrd_rng.Sampler.discrete_of_weights t.transition
  in
  let state = ref (Lrd_rng.Sampler.discrete_draw rng initial_table) in
  let out =
    Array.init slots (fun _ ->
        let rate = t.rates.(!state) in
        state := Lrd_rng.Sampler.discrete_draw rng row_tables.(!state);
        rate)
  in
  Lrd_trace.Trace.create ~rates:out ~slot
