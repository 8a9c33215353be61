let is_power_of_two n = n > 0 && n land (n - 1) = 0

let next_power_of_two n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

type vec =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* ------------------------------------------------------------------ *)
(* Power-of-two complex transforms — the private core of {!Real}.

   Plans hold only immutable tables.  A transform runs in place on the
   caller's buffers, which must already hold the input in bit-reversed
   order ([input_order]): the reordering is folded into whichever pass
   loads the data, so the transform itself is butterfly stages only.

   A plan keeps one flat twiddle-factor table shared by every butterfly
   stage: stage [len = 2^s] reads its [half = len/2] factors at offset
   [half - 1] (the halves of the earlier stages sum to exactly that), so
   the table holds [n - 1] factors total.  Each factor is computed by a
   direct cos/sin call rather than a repeated-multiplication recurrence,
   which both removes the O(len) error accumulation within a stage and
   moves all trigonometry out of the transform itself. *)

type plan = {
  p2_size : int;
  wre : float array;  (* cos of the forward angle -2 pi k / len. *)
  wim : float array;  (* sin of the forward angle (<= 0 half-plane). *)
}

let complex_plan n =
  let wre = Array.make (max 1 (n - 1)) 1.0 in
  let wim = Array.make (max 1 (n - 1)) 0.0 in
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let offset = half - 1 in
    for k = 0 to half - 1 do
      let ang = -2.0 *. Float.pi *. float_of_int k /. float_of_int !len in
      wre.(offset + k) <- cos ang;
      wim.(offset + k) <- sin ang
    done;
    len := !len * 2
  done;
  { p2_size = n; wre; wim }

(* The in-place butterflies over [0, n), input in bit-reversed order.
   [conjugate = false] is the forward transform; [true] runs the
   inverse (without the 1/n scaling) by negating the table's sine.  Stages run two per pass (radix 2^2): for each group
   a, b = a + q, c = a + 2q, d = c + q of a block of 4q, the pass does
   stage 2q's butterflies (a, b) and (c, d), then stage 4q's (a, c) and
   (b, d), with exactly the twiddles and operations the stage-at-a-time
   loop would apply to each element.  An odd number of stages starts
   with one radix-2 pass.  A pass walks the buffer in spans of [chunk]
   points (or one block, when larger) with each k's twiddles loaded
   once per span, so the early, small-block passes stay in cache.
   Performs no heap allocation. *)
let chunk = 1024

let transform p ~conjugate re im =
  let n = p.p2_size in
  let wre = p.wre and wim = p.wim in
  let sign = if conjugate then -1.0 else 1.0 in
  let stages = ref 0 in
  while 1 lsl !stages < n do incr stages done;
  let q = ref 1 in
  if !stages land 1 = 1 then begin
    let cr = Array.unsafe_get wre 0 and ci = sign *. Array.unsafe_get wim 0 in
    let a = ref 0 in
    while !a < n do
      let b = !a + 1 in
      let rb = Array.unsafe_get re b and ib = Array.unsafe_get im b in
      let tr = (rb *. cr) -. (ib *. ci) and ti = (rb *. ci) +. (ib *. cr) in
      let ra = Array.unsafe_get re !a and ia = Array.unsafe_get im !a in
      Array.unsafe_set re b (ra -. tr);
      Array.unsafe_set im b (ia -. ti);
      Array.unsafe_set re !a (ra +. tr);
      Array.unsafe_set im !a (ia +. ti);
      a := !a + 2
    done;
    q := 2
  end;
  while 4 * !q <= n do
    let q1 = !q in
    let q2 = 2 * q1 in
    let span = min n (max (2 * q2) chunk) in
    let base = ref 0 in
    while !base < n do
      let span_stop = !base + span in
      for k = 0 to q1 - 1 do
        let w1r = Array.unsafe_get wre (q1 - 1 + k)
        and w1i = sign *. Array.unsafe_get wim (q1 - 1 + k) in
        let w2r = Array.unsafe_get wre (q2 - 1 + k)
        and w2i = sign *. Array.unsafe_get wim (q2 - 1 + k) in
        let w3r = Array.unsafe_get wre (q2 - 1 + q1 + k)
        and w3i = sign *. Array.unsafe_get wim (q2 - 1 + q1 + k) in
        let a = ref (!base + k) in
        while !a < span_stop do
          let b = !a + q1 in
          let c = !a + q2 in
          let d = c + q1 in
          (* Stage 2 q1: (a, b) and (c, d), both with w1. *)
          let rb = Array.unsafe_get re b and ib = Array.unsafe_get im b in
          let tr = (rb *. w1r) -. (ib *. w1i)
          and ti = (rb *. w1i) +. (ib *. w1r) in
          let ra = Array.unsafe_get re !a and ia = Array.unsafe_get im !a in
          let br = ra -. tr and bi = ia -. ti in
          let ar = ra +. tr and ai = ia +. ti in
          let rd = Array.unsafe_get re d and id = Array.unsafe_get im d in
          let tr = (rd *. w1r) -. (id *. w1i)
          and ti = (rd *. w1i) +. (id *. w1r) in
          let rc = Array.unsafe_get re c and ic = Array.unsafe_get im c in
          let dr = rc -. tr and di = ic -. ti in
          let cr = rc +. tr and ci = ic +. ti in
          (* Stage 4 q1: (a, c) with w2 and (b, d) with w3. *)
          let tr = (cr *. w2r) -. (ci *. w2i)
          and ti = (cr *. w2i) +. (ci *. w2r) in
          Array.unsafe_set re c (ar -. tr);
          Array.unsafe_set im c (ai -. ti);
          Array.unsafe_set re !a (ar +. tr);
          Array.unsafe_set im !a (ai +. ti);
          let tr = (dr *. w3r) -. (di *. w3i)
          and ti = (dr *. w3i) +. (di *. w3r) in
          Array.unsafe_set re d (br -. tr);
          Array.unsafe_set im d (bi -. ti);
          Array.unsafe_set re b (br +. tr);
          Array.unsafe_set im b (bi +. ti);
          a := !a + (2 * q2)
        done
      done;
      base := span_stop
    done;
    q := 2 * q2
  done

(* [input_order plan] maps each input index to its slot in the buffer
   [transform] expects: the bit reversal of [n]. *)
let input_order { p2_size = n; _ } =
  let rev = Array.make n 0 in
  for i = 1 to n - 1 do
    (* Shift the previous reversal right and bring in the new low bit. *)
    rev.(i) <- (rev.(i lsr 1) lsr 1) lor (if i land 1 = 0 then 0 else n lsr 1)
  done;
  rev

let dft_naive ~re ~im =
  let n = Array.length re in
  if Array.length im <> n then
    invalid_arg "Fft.dft_naive: re and im must have the same length";
  let out_re = Array.make n 0.0 and out_im = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let sr = ref 0.0 and si = ref 0.0 in
    for j = 0 to n - 1 do
      let ang =
        -2.0 *. Float.pi *. float_of_int k *. float_of_int j
        /. float_of_int n
      in
      let c = cos ang and s = sin ang in
      sr := !sr +. (re.(j) *. c) -. (im.(j) *. s);
      si := !si +. (re.(j) *. s) +. (im.(j) *. c)
    done;
    out_re.(k) <- !sr;
    out_im.(k) <- !si
  done;
  (out_re, out_im)

(* ------------------------------------------------------------------ *)
(* Real-input transforms.

   A real signal of even length n is packed into a complex signal of
   length h = n/2 (z_l = x_{2l} + i x_{2l+1}); one half-size complex
   transform plus an O(n) split pass yields the half-spectrum
   X_0 .. X_h, which by conjugate symmetry is the whole transform.  The
   split reads the even/odd sub-spectra out of Z by Hermitian symmetry:

     E_k = (Z_k + conj Z_{h-k}) / 2,  O_k = -i (Z_k - conj Z_{h-k}) / 2,
     X_k = E_k + exp(-2 i pi k / n) O_k.

   The inverse runs the same algebra backwards — W_k built from the
   half-spectrum feeds one half-size FORWARD transform whose output
   interleaves back into the signal — so forward and inverse share the
   complex core and the twiddle table t_k = exp(-2 i pi k / n).  Every
   pass that loads the complex core writes straight into its input
   order, so no transform pays a separate permutation pass. *)

module Real = struct
  type t = {
    n : int;
    h : int;
    sub : plan;  (* complex plan of size h *)
    order : int array;  (* [input_order sub] *)
    ifac : float;  (* 1 / (2 h), preboxed so inverse calls stay alloc-free *)
    tre : float array;  (* cos (-2 pi k / n), k = 0 .. h *)
    tim : float array;
    pre : float array;  (* packed half-size scratch, length h *)
    pim : float array;
  }

  let m_real_plans_built = Lrd_obs.Obs.Counter.make "fft/real_plans_built"

  let make_plan n =
    if n < 2 || not (is_power_of_two n) then
      invalid_arg "Fft.Real.make_plan: size must be a power of two >= 2";
    Lrd_obs.Obs.Counter.incr m_real_plans_built;
    if Lrd_obs.Obs.Trace.enabled () then
      Lrd_obs.Obs.Trace.instant ~arg:n "fft/real_plan_build";
    let h = n / 2 in
    let tre = Array.make (h + 1) 1.0 and tim = Array.make (h + 1) 0.0 in
    for k = 0 to h do
      let ang = -2.0 *. Float.pi *. float_of_int k /. float_of_int n in
      tre.(k) <- cos ang;
      tim.(k) <- sin ang
    done;
    let sub = complex_plan h in
    {
      n;
      h;
      sub;
      order = input_order sub;
      ifac = 0.5 /. float_of_int h;
      tre;
      tim;
      pre = Array.make h 0.0;
      pim = Array.make h 0.0;
    }

  let clone t = { t with pre = Array.make t.h 0.0; pim = Array.make t.h 0.0 }
  let size t = t.n
  let spectrum_length t = t.h + 1

  (* Per-domain plan memo: real plans own scratch, so they cannot be
     shared across domains; a DLS-keyed table gives each domain its
     own. *)
  let m_cache_hits = Lrd_obs.Obs.Counter.make "fft/real_plan_cache_hits"
  let m_cache_misses = Lrd_obs.Obs.Counter.make "fft/real_plan_cache_misses"

  let domain_plans : (int, t) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 8)

  let cached_plan n =
    let table = Domain.DLS.get domain_plans in
    match Hashtbl.find_opt table n with
    | Some p ->
        Lrd_obs.Obs.Counter.incr m_cache_hits;
        p
    | None ->
        Lrd_obs.Obs.Counter.incr m_cache_misses;
        let p = make_plan n in
        Hashtbl.add table n p;
        p

  let check_spec t ~spec_re ~spec_im =
    if Array.length spec_re < t.h + 1 || Array.length spec_im < t.h + 1 then
      invalid_arg "Fft.Real: spectrum buffers shorter than n/2 + 1"

  (* Zero the input slots of pairs [next .. h - 1]. *)
  let pack_zeros t next =
    let pre = t.pre and pim = t.pim and order = t.order in
    for l = next to t.h - 1 do
      let p = Array.unsafe_get order l in
      Array.unsafe_set pre p 0.0;
      Array.unsafe_set pim p 0.0
    done

  (* Pack signal.(0 .. len-1), zero-extended to n, into pre/pim in the
     complex core's input order. *)
  let pack_float t signal len =
    let pre = t.pre and pim = t.pim and order = t.order in
    let pairs = len / 2 in
    for l = 0 to pairs - 1 do
      let p = Array.unsafe_get order l in
      Array.unsafe_set pre p (Array.unsafe_get signal (2 * l));
      Array.unsafe_set pim p (Array.unsafe_get signal ((2 * l) + 1))
    done;
    if len land 1 = 1 then begin
      let p = Array.unsafe_get order pairs in
      Array.unsafe_set pre p (Array.unsafe_get signal (len - 1));
      Array.unsafe_set pim p 0.0;
      pack_zeros t (pairs + 1)
    end
    else pack_zeros t pairs

  let pack_big t (signal : vec) len =
    let pre = t.pre and pim = t.pim and order = t.order in
    let pairs = len / 2 in
    for l = 0 to pairs - 1 do
      let p = Array.unsafe_get order l in
      Array.unsafe_set pre p (Bigarray.Array1.unsafe_get signal (2 * l));
      Array.unsafe_set pim p (Bigarray.Array1.unsafe_get signal ((2 * l) + 1))
    done;
    if len land 1 = 1 then begin
      let p = Array.unsafe_get order pairs in
      Array.unsafe_set pre p (Bigarray.Array1.unsafe_get signal (len - 1));
      Array.unsafe_set pim p 0.0;
      pack_zeros t (pairs + 1)
    end
    else pack_zeros t pairs

  (* The split pass: the packed spectrum Z into the real half-spectrum.  The
     (k, h-k) pair shares one twiddle read: with P = t_k O_k,
     X_{h-k} = conj (E_k - P). *)
  let split_forward t ~spec_re ~spec_im =
    let h = t.h in
    let pre = t.pre and pim = t.pim in
    let zr0 = Array.unsafe_get pre 0 and zi0 = Array.unsafe_get pim 0 in
    Array.unsafe_set spec_re 0 (zr0 +. zi0);
    Array.unsafe_set spec_im 0 0.0;
    Array.unsafe_set spec_re h (zr0 -. zi0);
    Array.unsafe_set spec_im h 0.0;
    let tre = t.tre and tim = t.tim in
    let k = ref 1 in
    while 2 * !k < h do
      let kk = !k in
      let j = h - kk in
      let zrk = Array.unsafe_get pre kk and zik = Array.unsafe_get pim kk in
      let zrj = Array.unsafe_get pre j and zij = Array.unsafe_get pim j in
      let er = 0.5 *. (zrk +. zrj) and ei = 0.5 *. (zik -. zij) in
      let our = 0.5 *. (zik +. zij) and oui = 0.5 *. (zrj -. zrk) in
      let tr = Array.unsafe_get tre kk and ti = Array.unsafe_get tim kk in
      let pr = (our *. tr) -. (oui *. ti) in
      let pi = (our *. ti) +. (oui *. tr) in
      Array.unsafe_set spec_re kk (er +. pr);
      Array.unsafe_set spec_im kk (ei +. pi);
      Array.unsafe_set spec_re j (er -. pr);
      Array.unsafe_set spec_im j (pi -. ei);
      incr k
    done;
    if h land 1 = 0 && h >= 2 then begin
      let mid = h / 2 in
      Array.unsafe_set spec_re mid (Array.unsafe_get pre mid);
      Array.unsafe_set spec_im mid (-.Array.unsafe_get pim mid)
    end

  let forward_ip t ~signal ~len ~spec_re ~spec_im =
    if len < 0 || len > t.n then invalid_arg "Fft.Real.forward_ip: bad len";
    if Array.length signal < len then
      invalid_arg "Fft.Real.forward_ip: signal shorter than len";
    check_spec t ~spec_re ~spec_im;
    pack_float t signal len;
    transform t.sub ~conjugate:false t.pre t.pim;
    split_forward t ~spec_re ~spec_im

  (* Load W_k = fac * (E2_k + i (D2_k conj t_k)) into pre/pim (input
     order), where E2_k = X_k + conj X_{h-k} and D2_k = X_k - conj X_{h-k}
     (so E2/2 and D2 conj t / 2 are the even/odd sub-spectra).  With
     fac = 1/(2h) the following half-size CONJUGATE transform interleaves
     the normalized inverse; [conj] negates the imaginary reads, which
     with fac = 1 turns the same pass into the unnormalized synthesis
     y_j = sum_k X_k exp(-2 i pi j k / n) of a Hermitian spectrum. *)
  let load_w t ~spec_re ~spec_im ~conj ~fac =
    let h = t.h in
    let pre = t.pre and pim = t.pim and order = t.order in
    let tre = t.tre and tim = t.tim in
    let sign = if conj then -1.0 else 1.0 in
    for k = 0 to h - 1 do
      let j = h - k in
      let xrk = Array.unsafe_get spec_re k
      and xik = sign *. Array.unsafe_get spec_im k in
      let xrj = Array.unsafe_get spec_re j
      and xij = sign *. Array.unsafe_get spec_im j in
      let er = xrk +. xrj and ei = xik -. xij in
      let dr = xrk -. xrj and di = xik +. xij in
      let tr = Array.unsafe_get tre k and ti = Array.unsafe_get tim k in
      let our = (dr *. tr) +. (di *. ti) in
      let oui = (di *. tr) -. (dr *. ti) in
      let p = Array.unsafe_get order k in
      Array.unsafe_set pre p (fac *. (er -. oui));
      Array.unsafe_set pim p (fac *. (ei +. our))
    done

  let unpack_float ~(re : float array) ~(im : float array) signal len =
    let pairs = len / 2 in
    for l = 0 to pairs - 1 do
      Array.unsafe_set signal (2 * l) (Array.unsafe_get re l);
      Array.unsafe_set signal ((2 * l) + 1) (Array.unsafe_get im l)
    done;
    if len land 1 = 1 then
      Array.unsafe_set signal (len - 1) (Array.unsafe_get re pairs)

  let unpack_big ~(re : float array) ~(im : float array) (signal : vec) len =
    let pairs = len / 2 in
    for l = 0 to pairs - 1 do
      Bigarray.Array1.unsafe_set signal (2 * l) (Array.unsafe_get re l);
      Bigarray.Array1.unsafe_set signal ((2 * l) + 1) (Array.unsafe_get im l)
    done;
    if len land 1 = 1 then
      Bigarray.Array1.unsafe_set signal (len - 1) (Array.unsafe_get re pairs)

  let inverse_ip t ~spec_re ~spec_im ~signal ~len =
    if len < 0 || len > t.n then invalid_arg "Fft.Real.inverse_ip: bad len";
    if Array.length signal < len then
      invalid_arg "Fft.Real.inverse_ip: signal shorter than len";
    check_spec t ~spec_re ~spec_im;
    load_w t ~spec_re ~spec_im ~conj:false ~fac:t.ifac;
    transform t.sub ~conjugate:true t.pre t.pim;
    unpack_float ~re:t.pre ~im:t.pim signal len

  let synthesize_ip t ~spec_re ~spec_im ~signal ~len =
    if len < 0 || len > t.n then invalid_arg "Fft.Real.synthesize_ip: bad len";
    if Array.length signal < len then
      invalid_arg "Fft.Real.synthesize_ip: signal shorter than len";
    check_spec t ~spec_re ~spec_im;
    load_w t ~spec_re ~spec_im ~conj:true ~fac:1.0;
    transform t.sub ~conjugate:true t.pre t.pim;
    unpack_float ~re:t.pre ~im:t.pim signal len

  (* The spectral pass of a convolution: for each bin pair (k, h-k) of
     the packed spectrum Z in pre/pim, the split of [split_forward], the
     kernel multiply Y = X K, and the [load_w] of the inverse (fac =
     1/(2h)), writing W into spec_re/spec_im in input order.  Each value
     goes through exactly the operations of those three passes; only the
     round trips through memory between them are gone. *)
  let spectral_pass t ~kernel_re ~kernel_im ~spec_re ~spec_im =
    let h = t.h in
    let pre = t.pre and pim = t.pim and order = t.order in
    let tre = t.tre and tim = t.tim in
    let fac = t.ifac in
    (* k = 0 against h: X_0 and X_h are real. *)
    let zr0 = Array.unsafe_get pre 0 and zi0 = Array.unsafe_get pim 0 in
    let xkr = zr0 +. zi0 and xki = 0.0 in
    let xjr = zr0 -. zi0 and xji = 0.0 in
    let kkr = Array.unsafe_get kernel_re 0 and kki = Array.unsafe_get kernel_im 0 in
    let kjr = Array.unsafe_get kernel_re h and kji = Array.unsafe_get kernel_im h in
    let ykr = (xkr *. kkr) -. (xki *. kki) and yki = (xkr *. kki) +. (xki *. kkr) in
    let yjr = (xjr *. kjr) -. (xji *. kji) and yji = (xjr *. kji) +. (xji *. kjr) in
    let er = ykr +. yjr and ei = yki -. yji in
    let dr = ykr -. yjr and di = yki +. yji in
    let tr = Array.unsafe_get tre 0 and ti = Array.unsafe_get tim 0 in
    let our = (dr *. tr) +. (di *. ti) and oui = (di *. tr) -. (dr *. ti) in
    let p = Array.unsafe_get order 0 in
    Array.unsafe_set spec_re p (fac *. (er -. oui));
    Array.unsafe_set spec_im p (fac *. (ei +. our));
    let k = ref 1 in
    while 2 * !k < h do
      let kk = !k in
      let j = h - kk in
      (* The split. *)
      let zrk = Array.unsafe_get pre kk and zik = Array.unsafe_get pim kk in
      let zrj = Array.unsafe_get pre j and zij = Array.unsafe_get pim j in
      let er = 0.5 *. (zrk +. zrj) and ei = 0.5 *. (zik -. zij) in
      let our = 0.5 *. (zik +. zij) and oui = 0.5 *. (zrj -. zrk) in
      let tkr = Array.unsafe_get tre kk and tki = Array.unsafe_get tim kk in
      let pr = (our *. tkr) -. (oui *. tki) in
      let pi = (our *. tki) +. (oui *. tkr) in
      let xkr = er +. pr and xki = ei +. pi in
      let xjr = er -. pr and xji = pi -. ei in
      (* Kernel multiply. *)
      let kkr = Array.unsafe_get kernel_re kk
      and kki = Array.unsafe_get kernel_im kk in
      let kjr = Array.unsafe_get kernel_re j
      and kji = Array.unsafe_get kernel_im j in
      let ykr = (xkr *. kkr) -. (xki *. kki)
      and yki = (xkr *. kki) +. (xki *. kkr) in
      let yjr = (xjr *. kjr) -. (xji *. kji)
      and yji = (xjr *. kji) +. (xji *. kjr) in
      (* W_k, then W_{h-k} with the roles of k and h - k swapped. *)
      let er = ykr +. yjr and ei = yki -. yji in
      let dr = ykr -. yjr and di = yki +. yji in
      let our = (dr *. tkr) +. (di *. tki) and oui = (di *. tkr) -. (dr *. tki) in
      let p = Array.unsafe_get order kk in
      Array.unsafe_set spec_re p (fac *. (er -. oui));
      Array.unsafe_set spec_im p (fac *. (ei +. our));
      let er = yjr +. ykr and ei = yji -. yki in
      let dr = yjr -. ykr and di = yji +. yki in
      let tjr = Array.unsafe_get tre j and tji = Array.unsafe_get tim j in
      let our = (dr *. tjr) +. (di *. tji) and oui = (di *. tjr) -. (dr *. tji) in
      let p = Array.unsafe_get order j in
      Array.unsafe_set spec_re p (fac *. (er -. oui));
      Array.unsafe_set spec_im p (fac *. (ei +. our));
      incr k
    done;
    if h land 1 = 0 && h >= 2 then begin
      (* The middle bin pairs with itself. *)
      let mid = h / 2 in
      let xr = Array.unsafe_get pre mid and xi = -.Array.unsafe_get pim mid in
      let kr = Array.unsafe_get kernel_re mid and ki = Array.unsafe_get kernel_im mid in
      let yr = (xr *. kr) -. (xi *. ki) and yi = (xr *. ki) +. (xi *. kr) in
      let er = yr +. yr and ei = yi -. yi in
      let dr = yr -. yr and di = yi +. yi in
      let tr = Array.unsafe_get tre mid and ti = Array.unsafe_get tim mid in
      let our = (dr *. tr) +. (di *. ti) and oui = (di *. tr) -. (dr *. ti) in
      let p = Array.unsafe_get order mid in
      Array.unsafe_set spec_re p (fac *. (er -. oui));
      Array.unsafe_set spec_im p (fac *. (ei +. our))
    end

  let convolve t ~kernel_re ~kernel_im ~spec_re ~spec_im ~(signal : vec) ~len
      ~(dst : vec) ~dst_len =
    if
      len < 0 || len > t.n || dst_len < 0 || dst_len > t.n
      || Bigarray.Array1.dim signal < len
      || Bigarray.Array1.dim dst < dst_len
    then invalid_arg "Fft.Real.convolve: bad signal or dst length";
    check_spec t ~spec_re:kernel_re ~spec_im:kernel_im;
    check_spec t ~spec_re ~spec_im;
    pack_big t signal len;
    transform t.sub ~conjugate:false t.pre t.pim;
    spectral_pass t ~kernel_re ~kernel_im ~spec_re ~spec_im;
    transform t.sub ~conjugate:true spec_re spec_im;
    unpack_big ~re:spec_re ~im:spec_im dst dst_len
end
