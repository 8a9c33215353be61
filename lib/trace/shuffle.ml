(* Per-domain permutation scratch: the index array is consumed inside
   [external_shuffle] before any other shuffle can run on this domain,
   so it never needs a fresh allocation.  Refilling with the identity
   before the same Fisher-Yates pass keeps the draws — and therefore the
   shuffle — bit-identical to a freshly allocated array. *)
let perm_scratch = Lrd_parallel.Arena.create (fun n -> Array.make n 0)

let permutation rng n =
  let p = Lrd_parallel.Arena.get perm_scratch n in
  for i = 0 to n - 1 do
    p.(i) <- i
  done;
  for i = n - 1 downto 1 do
    let j = Lrd_rng.Rng.int rng ~bound:(i + 1) in
    let tmp = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- tmp
  done;
  p

let external_shuffle rng trace ~block =
  if block <= 0 then
    invalid_arg "Shuffle.external_shuffle: block must be positive";
  let n = Trace.length trace in
  let blocks = max 1 (n / block) in
  let usable = min n (blocks * block) in
  let order = permutation rng blocks in
  let rates = Array.make usable 0.0 in
  let src = trace.Trace.rates in
  Array.iteri
    (fun dst_block src_block ->
      Array.blit src (src_block * block) rates (dst_block * block)
        (min block (usable - (dst_block * block))))
    order;
  Trace.create ~rates ~slot:trace.Trace.slot

let shuffle_range rng a pos len =
  for i = len - 1 downto 1 do
    let j = Lrd_rng.Rng.int rng ~bound:(i + 1) in
    let tmp = a.(pos + i) in
    a.(pos + i) <- a.(pos + j);
    a.(pos + j) <- tmp
  done

let internal_shuffle rng trace ~block =
  if block <= 0 then
    invalid_arg "Shuffle.internal_shuffle: block must be positive";
  let rates = Array.copy trace.Trace.rates in
  let n = Array.length rates in
  let pos = ref 0 in
  while !pos < n do
    let len = min block (n - !pos) in
    shuffle_range rng rates !pos len;
    pos := !pos + block
  done;
  Trace.create ~rates ~slot:trace.Trace.slot

