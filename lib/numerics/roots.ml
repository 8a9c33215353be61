let check_bracket name flo fhi =
  if flo = 0.0 || fhi = 0.0 then ()
  else if (flo > 0.0) = (fhi > 0.0) then
    invalid_arg (name ^ ": interval does not bracket a root")

let bisection ~f ~lo ~hi ?(eps = 1e-12) () =
  let flo = f lo and fhi = f hi in
  check_bracket "Roots.bisection" flo fhi;
  if flo = 0.0 then lo
  else if fhi = 0.0 then hi
  else begin
    let rec go lo hi flo iterations =
      let mid = (lo +. hi) /. 2.0 in
      if hi -. lo <= eps *. (1.0 +. Float.abs mid) || iterations = 0 then mid
      else begin
        let fmid = f mid in
        if fmid = 0.0 then mid
        else if (fmid > 0.0) = (flo > 0.0) then go mid hi fmid (iterations - 1)
        else go lo mid flo (iterations - 1)
      end
    in
    go lo hi flo 200
  end
