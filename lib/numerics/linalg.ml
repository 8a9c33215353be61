let check_square a =
  let n = Array.length a in
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "Linalg: matrix must be square")
    a;
  n

(* LU factorization with partial pivoting, in place on a copy.
   Returns (lu, permutation); raises on singularity. *)
let lu_factor a =
  let n = check_square a in
  let lu = Array.map Array.copy a in
  let perm = Array.init n (fun i -> i) in
  for col = 0 to n - 1 do
    (* Pivot: largest magnitude in this column at or below the diagonal. *)
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs lu.(row).(col) > Float.abs lu.(!pivot).(col) then
        pivot := row
    done;
    if !pivot <> col then begin
      let tmp = lu.(col) in
      lu.(col) <- lu.(!pivot);
      lu.(!pivot) <- tmp;
      let tmp = perm.(col) in
      perm.(col) <- perm.(!pivot);
      perm.(!pivot) <- tmp
    end;
    let diag = lu.(col).(col) in
    if Float.abs diag < 1e-300 then failwith "Linalg: singular matrix";
    for row = col + 1 to n - 1 do
      let factor = lu.(row).(col) /. diag in
      lu.(row).(col) <- factor;
      for k = col + 1 to n - 1 do
        lu.(row).(k) <- lu.(row).(k) -. (factor *. lu.(col).(k))
      done
    done
  done;
  (lu, perm)

let solve a b =
  let n = check_square a in
  if Array.length b <> n then invalid_arg "Linalg.solve: size mismatch";
  let lu, perm = lu_factor a in
  (* Forward substitution on the permuted right-hand side. *)
  let y = Array.init n (fun i -> b.(perm.(i))) in
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      y.(i) <- y.(i) -. (lu.(i).(j) *. y.(j))
    done
  done;
  (* Back substitution. *)
  let x = Array.copy y in
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
    done;
    x.(i) <- x.(i) /. lu.(i).(i)
  done;
  x

let mat_vec a x =
  Array.map
    (fun row ->
      let acc = Summation.create () in
      Array.iteri (fun j v -> Summation.add acc (v *. x.(j))) row;
      Summation.total acc)
    a

let residual_norm a x b =
  let ax = mat_vec a x in
  let worst = ref 0.0 in
  Array.iteri
    (fun i v ->
      let r = Float.abs (v -. b.(i)) in
      if r > !worst then worst := r)
    ax;
  !worst
