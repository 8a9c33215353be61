let direct a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then [||]
  else begin
    let out = Array.make (na + nb - 1) 0.0 in
    for i = 0 to na - 1 do
      let ai = a.(i) in
      if ai <> 0.0 then
        for j = 0 to nb - 1 do
          out.(i + j) <- out.(i + j) +. (ai *. b.(j))
        done
    done;
    out
  end

let direct_into a b ~dst =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then invalid_arg "Convolution.direct_into: empty input";
  let out_len = na + nb - 1 in
  if Array.length dst < out_len then
    invalid_arg "Convolution.direct_into: dst too short";
  Array.fill dst 0 out_len 0.0;
  for i = 0 to na - 1 do
    let ai = Array.unsafe_get a i in
    if ai <> 0.0 then
      for j = 0 to nb - 1 do
        let k = i + j in
        Array.unsafe_set dst k
          (Array.unsafe_get dst k +. (ai *. Array.unsafe_get b j))
      done
  done

(* The smallest even fast size >= want whose half is also fast — what a
   real-input transform of a linear convolution needs.  Every even fast
   size is twice a fast size, so this is exact, and consecutive fast
   sizes are within 25% of each other: near-power-of-two grids stop
   paying the 2x power-of-two padding penalty. *)
let real_transform_size_for want = 2 * Fft.good_size ((want + 1) / 2)

let fft a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then [||]
  else begin
    let out_len = na + nb - 1 in
    let n = real_transform_size_for out_len in
    let rp = Fft.Real.cached_plan n in
    let bins = Fft.Real.spectrum_length rp in
    let bre = Array.make bins 0.0 and bim = Array.make bins 0.0 in
    Fft.Real.forward_ip rp ~signal:b ~len:nb ~spec_re:bre ~spec_im:bim;
    let out = Array.make out_len 0.0 in
    Fft.Real.convolve rp Fft.Real.Floats ~kernel_re:bre ~kernel_im:bim
      ~spec_re:(Array.make bins 0.0) ~spec_im:(Array.make bins 0.0) ~signal:a
      ~len:na ~dst:out ~dst_len:out_len;
    out
  end

(* The single crossover heuristic shared by [auto] and the solver
   (previously the two used different thresholds: 4096 here, an
   unrelated bin-count cutoff of 64 there).  Measured at solver shapes
   (signal m+1 against kernel 2m+1): the schoolbook loop wins clearly
   below a length product of ~1.5k, the FFT wins clearly above ~4k, and
   the band between is within noise of even, so the conservative end of
   the measured band is kept. *)
let fft_product_threshold = 4096

let prefer_fft ~na ~nb = na * nb > fft_product_threshold

(* Crossover for kernels whose transform size is FIXED regardless of how
   little direct work the call needs — the autocovariance estimator
   transforms m = next_pow2 (2 n) points whether it wants 1 lag or n.
   Calibrated from the same measured constant: at the 64x64 break-even
   behind [fft_product_threshold], [fft_product_threshold] direct
   multiply-adds match a forward/inverse pair at size 128 (7 bits), so
   one transform point-bit costs threshold / (2 * 128 * 7) of them. *)
let prefer_fft_fixed ~transform_size ~direct_ops =
  if transform_size <= 0 then
    invalid_arg "Convolution.prefer_fft_fixed: size must be positive";
  let bits =
    (* ceil log2: fast sizes sit between powers of two, so round up. *)
    let b = ref 0 and v = ref 1 in
    while !v < transform_size do
      incr b;
      v := !v lsl 1
    done;
    max 1 !b
  in
  let transform_point_bits = float_of_int (2 * transform_size * bits) in
  float_of_int direct_ops
  > float_of_int fft_product_threshold /. (2.0 *. 128.0 *. 7.0)
    *. transform_point_bits

let auto a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then [||]
  else if prefer_fft ~na ~nb then fft a b
  else direct a b

(* ------------------------------------------------------------------ *)
(* Planned real convolution against a fixed kernel.

   The plan owns the kernel's half-spectrum, a clone of the domain's
   cached real-transform plan (shared tables, own packing scratch) and
   half-spectrum scratch — a [share]d plan reuses another plan's
   transform and scratch — so [execute] performs no heap allocation in
   steady state: both entry points run {!Fft.Real.convolve} — pack the
   (zero-extended) signal straight into the half-size transform, one
   pass over the n/2 + 1 independent bins (conjugate symmetry makes the
   upper half free), and the inverse interleaved directly into [dst].

   A plan built with an explicit [size] smaller than the full linear
   length computes CIRCULAR convolutions: the kernel is wrapped mod
   [size] at build time, which is what the solver's aliased Lindley
   step wants.  Such a plan refuses the linear [execute]. *)

type real_plan = {
  kernel_len : int;
  max_signal : int;
  n : int;  (* transform size *)
  linear : bool;  (* n covers na + nk - 1: [execute] output is linear *)
  rfft : Fft.Real.t;
  kre : float array;  (* kernel half-spectrum, length n/2 + 1 *)
  kim : float array;
  sre : float array;  (* spectrum scratch *)
  sim : float array;
}

let make_real_plan ?share ?size ~kernel ~max_signal () =
  let nk = Array.length kernel in
  if nk = 0 then invalid_arg "Convolution.make_real_plan: empty kernel";
  if max_signal < 1 then
    invalid_arg "Convolution.make_real_plan: max_signal < 1";
  let full = nk + max_signal - 1 in
  let n =
    match (share, size) with
    | Some p, Some s when s <> p.n ->
        invalid_arg "Convolution.make_real_plan: size differs from share"
    | Some p, _ -> p.n
    | None, Some s -> s
    | None, None -> real_transform_size_for full
  in
  if n < max_signal then
    invalid_arg "Convolution.make_real_plan: size smaller than max_signal";
  let rfft =
    match share with
    | Some p -> p.rfft
    | None -> Fft.Real.clone (Fft.Real.cached_plan n)
  in
  let bins = Fft.Real.spectrum_length rfft in
  let kre = Array.make bins 0.0 and kim = Array.make bins 0.0 in
  if nk <= n then
    Fft.Real.forward_ip rfft ~signal:kernel ~len:nk ~spec_re:kre ~spec_im:kim
  else begin
    (* Circular plan shorter than the kernel: wrap the kernel mod n. *)
    let wrapped = Array.make n 0.0 in
    for i = 0 to nk - 1 do
      let j = i mod n in
      wrapped.(j) <- wrapped.(j) +. kernel.(i)
    done;
    Fft.Real.forward_ip rfft ~signal:wrapped ~len:n ~spec_re:kre ~spec_im:kim
  end;
  {
    kernel_len = nk;
    max_signal;
    n;
    linear = n >= full;
    rfft;
    kre;
    kim;
    sre = (match share with Some p -> p.sre | None -> Array.make bins 0.0);
    sim = (match share with Some p -> p.sim | None -> Array.make bins 0.0);
  }

let real_transform_size plan = plan.n

let execute plan a ~dst =
  let na = Array.length a in
  if na = 0 then invalid_arg "Convolution.execute: empty signal";
  if na > plan.max_signal then
    invalid_arg "Convolution.execute: signal longer than plan";
  if not plan.linear then
    invalid_arg "Convolution.execute: circular plan cannot produce linear output";
  let out_len = na + plan.kernel_len - 1 in
  if Array.length dst < out_len then
    invalid_arg "Convolution.execute: dst too short";
  Fft.Real.convolve plan.rfft Fft.Real.Floats ~kernel_re:plan.kre
    ~kernel_im:plan.kim ~spec_re:plan.sre ~spec_im:plan.sim ~signal:a ~len:na
    ~dst ~dst_len:out_len

let execute_real_circular plan ~signal ~len ~dst =
  if len < 1 || len > plan.max_signal || len > plan.n then
    invalid_arg "Convolution.execute_real_circular: bad signal length";
  if Bigarray.Array1.dim dst < plan.n then
    invalid_arg "Convolution.execute_real_circular: dst shorter than size";
  Fft.Real.convolve plan.rfft Fft.Real.Vec ~kernel_re:plan.kre
    ~kernel_im:plan.kim ~spec_re:plan.sre ~spec_im:plan.sim ~signal ~len ~dst
    ~dst_len:plan.n

(* Schoolbook convolution reading the signal from / writing into
   Bigarray vectors — the solver's direct path over its unboxed state.
   Allocation-free. *)
let direct_into_big (signal : Fft.vec) ~len ~kernel ~(dst : Fft.vec) =
  let nb = Array.length kernel in
  if len = 0 || nb = 0 then invalid_arg "Convolution.direct_into_big: empty input";
  let out_len = len + nb - 1 in
  if Bigarray.Array1.dim dst < out_len then
    invalid_arg "Convolution.direct_into_big: dst too short";
  for i = 0 to out_len - 1 do
    Bigarray.Array1.unsafe_set dst i 0.0
  done;
  for i = 0 to len - 1 do
    let ai = Bigarray.Array1.unsafe_get signal i in
    if ai <> 0.0 then
      for j = 0 to nb - 1 do
        let k = i + j in
        Bigarray.Array1.unsafe_set dst k
          (Bigarray.Array1.unsafe_get dst k +. (ai *. Array.unsafe_get kernel j))
      done
  done
