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

(* The measured FFT/direct crossover as a length product: the schoolbook
   loop wins clearly below ~1.5k, the FFT wins clearly above ~4k, and
   the band between is within noise of even, so the conservative end of
   the measured band is kept. *)
let fft_product_threshold = 4096

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
    (* ceil log2, so a size between powers of two rounds up. *)
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

(* ------------------------------------------------------------------ *)
(* Planned real convolution against a fixed kernel.

   The plan owns only the kernel's half-spectrum.  Executing it takes a
   [scratch]: a real-transform plan of the plan's size (tables plus
   packing buffers) and half-spectrum buffers.  [local_scratch] is the
   calling domain's, one per size, built on first use from its
   {!Fft.Real.cached_plan}; [make_scratch] gives a plan buffers of its
   own that share the building domain's read-only tables.  A plan that
   runs on whichever domain is at hand uses the first; one that must
   run beside another plan of the same size — the solver's ceiling
   chain, which steps on a crew domain while the floor chain steps
   on the caller — carries the second, so the member builds no tables
   and allocates nothing.  Either way an execution performs no heap
   allocation: it runs {!Fft.Real.convolve} — pack the (zero-extended)
   signal straight into the half-size transform, one pass over the
   n/2 + 1 independent bins (conjugate symmetry makes the upper half
   free), and the inverse interleaved directly into [dst].

   Every plan is CIRCULAR mod its size, with a kernel longer than the
   size wrapped at build time: the solver's aliased Lindley step. *)

type scratch = { rfft : Fft.Real.t; sre : float array; sim : float array }

let scratch_of rfft =
  let bins = Fft.Real.spectrum_length rfft in
  { rfft; sre = Array.make bins 0.0; sim = Array.make bins 0.0 }

let domain_scratch : (int, scratch) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

(* [Hashtbl.find] rather than [find_opt]: the hit path, taken once per
   execution, must not allocate. *)
let scratch_for_size n =
  let table = Domain.DLS.get domain_scratch in
  match Hashtbl.find table n with
  | s -> s
  | exception Not_found ->
      let s = scratch_of (Fft.Real.cached_plan n) in
      Hashtbl.add table n s;
      s

type real_plan = {
  max_signal : int;
  n : int;  (* transform size *)
  tables : Fft.Real.t;  (* the building domain's cached plan *)
  kre : float array;  (* kernel half-spectrum, length n/2 + 1 *)
  kim : float array;
}

let local_scratch plan = scratch_for_size plan.n
let make_scratch plan = scratch_of (Fft.Real.clone plan.tables)

(* The calling domain's buffer for wrapping a kernel longer than a
   circular plan, grown to the largest size seen: the solver builds two
   such plans per grid level, and a fresh kernel-sized array for each
   was a sixth of a one-shot solve's major-heap allocation. *)
let wrap_buffer : float array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let make_real_plan ~size:n ~kernel ~max_signal =
  let nk = Array.length kernel in
  if nk = 0 then invalid_arg "Convolution.make_real_plan: empty kernel";
  if max_signal < 1 then
    invalid_arg "Convolution.make_real_plan: max_signal < 1";
  if n < 2 * (max_signal - 1) then
    invalid_arg "Convolution.make_real_plan: size below 2 (max_signal - 1)";
  let rfft = (scratch_for_size n).rfft in
  let bins = Fft.Real.spectrum_length rfft in
  let kre = Array.make bins 0.0 and kim = Array.make bins 0.0 in
  if nk <= n then
    Fft.Real.forward_ip rfft ~signal:kernel ~len:nk ~spec_re:kre ~spec_im:kim
  else begin
    (* Circular plan shorter than the kernel: wrap the kernel mod n. *)
    let buffer = Domain.DLS.get wrap_buffer in
    if Array.length !buffer < n then buffer := Array.make n 0.0
    else Array.fill !buffer 0 n 0.0;
    let wrapped = !buffer in
    for i = 0 to nk - 1 do
      let j = i mod n in
      wrapped.(j) <- wrapped.(j) +. kernel.(i)
    done;
    Fft.Real.forward_ip rfft ~signal:wrapped ~len:n ~spec_re:kre ~spec_im:kim
  end;
  { max_signal; n; tables = rfft; kre; kim }

let execute_real_circular plan scratch ~signal ~len ~dst =
  if len < 1 || len > plan.max_signal then
    invalid_arg "Convolution.execute_real_circular: bad signal length";
  if Bigarray.Array1.dim dst < plan.n then
    invalid_arg "Convolution.execute_real_circular: dst shorter than size";
  if Fft.Real.size scratch.rfft <> plan.n then
    invalid_arg "Convolution.execute_real_circular: scratch of another size";
  Fft.Real.convolve scratch.rfft ~kernel_re:plan.kre
    ~kernel_im:plan.kim ~spec_re:scratch.sre ~spec_im:scratch.sim ~signal ~len
    ~dst ~dst_len:plan.n
