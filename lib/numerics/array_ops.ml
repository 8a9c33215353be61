let linspace a b n =
  if n < 2 then invalid_arg "Array_ops.linspace: need at least two points";
  let step = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i ->
      if i = n - 1 then b else a +. (float_of_int i *. step))

let logspace a b n =
  if a <= 0.0 || b <= 0.0 then
    invalid_arg "Array_ops.logspace: endpoints must be positive";
  if n < 2 then [| a |]
  else Array.map exp (linspace (log a) (log b) n)

let sum = Summation.kahan

let mean a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Array_ops.mean: empty array";
  sum a /. float_of_int n

let variance a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Array_ops.variance: empty array";
  let m = mean a in
  let acc = Summation.create () in
  Array.iter (fun x -> Summation.add acc ((x -. m) *. (x -. m))) a;
  Summation.total acc /. float_of_int n

(* Loops rather than [Array.fold_left], whose accumulator is boxed on
   every element. *)
let min_element a =
  let m = ref a.(0) in
  for i = 1 to Array.length a - 1 do
    m := Float.min !m a.(i)
  done;
  !m

let max_element a =
  let m = ref a.(0) in
  for i = 1 to Array.length a - 1 do
    m := Float.max !m a.(i)
  done;
  !m

let normalize a =
  let s = sum a in
  if not (s > 0.0) then
    invalid_arg "Array_ops.normalize: sum must be positive";
  for i = 0 to Array.length a - 1 do
    a.(i) <- a.(i) /. s
  done

