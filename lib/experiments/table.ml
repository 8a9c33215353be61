type surface = {
  title : string;
  xlabel : string;
  ylabel : string;
  zlabel : string;
  xs : float array;
  ys : float array;
  cells : float array array;
}

let heading fmt title =
  Format.fprintf fmt "@.%s@.%s@." title (String.make (String.length title) '-')

let axis_value v =
  if v = Float.infinity then "inf"
  else if v = Float.neg_infinity then "-inf"
  else if Float.abs v >= 1000.0 || (Float.abs v < 0.001 && v <> 0.0) then
    Printf.sprintf "%.3g" v
  else Printf.sprintf "%g" (Float.round (v *. 1e6) /. 1e6)

let cell_value v =
  if v = 0.0 then "0"
  else if Float.is_nan v then "nan"
  else Printf.sprintf "%.3e" v

let pad width s =
  if String.length s >= width then s
  else String.make (width - String.length s) ' ' ^ s

let column_width = 11

let print_surface fmt (s : surface) =
  heading fmt s.title;
  Format.fprintf fmt "%s (rows: %s; columns: %s)@." s.zlabel s.ylabel
    s.xlabel;
  Format.fprintf fmt "%s" (pad column_width (s.ylabel ^ "\\" ^ s.xlabel));
  Array.iter
    (fun x -> Format.fprintf fmt " %s" (pad column_width (axis_value x)))
    s.xs;
  Format.fprintf fmt "@.";
  Array.iteri
    (fun row y ->
      Format.fprintf fmt "%s" (pad column_width (axis_value y));
      Array.iter
        (fun v -> Format.fprintf fmt " %s" (pad column_width (cell_value v)))
        s.cells.(row);
      Format.fprintf fmt "@.")
    s.ys

let print_multi_series fmt ~title ~xlabel ~ylabel ~xs columns =
  heading fmt title;
  Format.fprintf fmt "%s (per column: %s)@." ylabel
    (String.concat ", " (List.map fst columns));
  Format.fprintf fmt "%s" (pad column_width xlabel);
  List.iter
    (fun (name, _) -> Format.fprintf fmt " %s" (pad column_width name))
    columns;
  Format.fprintf fmt "@.";
  Array.iteri
    (fun i x ->
      Format.fprintf fmt "%s" (pad column_width (axis_value x));
      List.iter
        (fun (_, ys) ->
          Format.fprintf fmt " %s" (pad column_width (cell_value ys.(i))))
        columns;
      Format.fprintf fmt "@.")
    xs
