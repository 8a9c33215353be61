open Lrd_numerics

let mean = Array_ops.mean
let variance = Array_ops.variance
let std a = sqrt (variance a)

let sample_variance a =
  let n = Array.length a in
  if n < 2 then invalid_arg "Descriptive.sample_variance: need >= 2 points";
  variance a *. float_of_int n /. float_of_int (n - 1)

let quantile a ~p =
  if Array.length a = 0 then invalid_arg "Descriptive.quantile: empty data";
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Descriptive.quantile: p must lie in [0, 1]";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = p *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then sorted.(n - 1)
  else begin
    let frac = pos -. float_of_int i in
    sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  end

let weighted_linear_regression ~x ~y ~w =
  let n = Array.length x in
  if Array.length y <> n || Array.length w <> n then
    invalid_arg "Descriptive.weighted_linear_regression: mismatched lengths";
  let positive = Array.fold_left (fun acc v -> if v > 0.0 then acc + 1 else acc) 0 w in
  if positive < 2 then
    invalid_arg
      "Descriptive.weighted_linear_regression: need >= 2 positive weights";
  let total = Summation.create () in
  let sx = Summation.create () and sy = Summation.create () in
  for i = 0 to n - 1 do
    Summation.add total w.(i);
    Summation.add sx (w.(i) *. x.(i));
    Summation.add sy (w.(i) *. y.(i))
  done;
  let wt = Summation.total total in
  let mx = Summation.total sx /. wt and my = Summation.total sy /. wt in
  let sxy = Summation.create () and sxx = Summation.create () in
  for i = 0 to n - 1 do
    Summation.add sxy (w.(i) *. (x.(i) -. mx) *. (y.(i) -. my));
    Summation.add sxx (w.(i) *. (x.(i) -. mx) *. (x.(i) -. mx))
  done;
  let sxx = Summation.total sxx in
  if sxx = 0.0 then
    invalid_arg "Descriptive.weighted_linear_regression: degenerate abscissae";
  let slope = Summation.total sxy /. sxx in
  (slope, my -. (slope *. mx))

let linear_regression ~x ~y =
  let n = Array.length x in
  if Array.length y <> n then
    invalid_arg "Descriptive.linear_regression: mismatched lengths";
  if n < 2 then invalid_arg "Descriptive.linear_regression: need >= 2 points";
  let mx = mean x and my = mean y in
  let sxy = Summation.create () and sxx = Summation.create () in
  for i = 0 to n - 1 do
    Summation.add sxy ((x.(i) -. mx) *. (y.(i) -. my));
    Summation.add sxx ((x.(i) -. mx) *. (x.(i) -. mx))
  done;
  let sxx = Summation.total sxx in
  if sxx = 0.0 then
    invalid_arg "Descriptive.linear_regression: degenerate abscissae";
  let slope = Summation.total sxy /. sxx in
  (slope, my -. (slope *. mx))
