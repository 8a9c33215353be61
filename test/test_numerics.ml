open Lrd_numerics

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let rng_state = ref 123456789

let next_float () =
  (* Tiny deterministic LCG for test data (keeps tests seed-stable). *)
  rng_state := (!rng_state * 1103515245) + 12345;
  float_of_int (!rng_state land 0xFFFFFF) /. float_of_int 0xFFFFFF

(* ------------------------------------------------------------------ *)
(* FFT: the real-input engine against the O(n^2) complex oracle *)

(* Real plan sizes are powers of two [>= 2]; the short list keeps the
   naive-DFT checks on zero-extended signals cheap. *)
let real_sizes = [ 2; 4; 8; 16; 32; 64; 128; 256; 512 ]

let pow2_sizes = real_sizes @ [ 1024; 2048 ]

let random_signal n =
  Array.init n (fun _ -> (20.0 *. next_float ()) -. 10.0)

let real_forward plan x =
  let h = Fft.Real.size plan / 2 in
  let sre = Array.make (h + 1) nan and sim = Array.make (h + 1) nan in
  Fft.Real.forward_ip plan ~signal:x ~len:(Array.length x) ~spec_re:sre
    ~spec_im:sim;
  (sre, sim)

(* The half-spectrum of [x], zero-extended to [n], against [dft_naive].
   The oracle carries its own rounding, so the tolerance scales with the
   signal mass rather than the bin value.  Returns the spectrum. *)
let check_against_naive ?(what = "") ?plan n x =
  let plan = match plan with Some p -> p | None -> Fft.Real.make_plan n in
  let sre, sim = real_forward plan x in
  let padded = Array.make n 0.0 in
  Array.blit x 0 padded 0 (Array.length x);
  let fre, fim = Fft.dft_naive ~re:padded ~im:(Array.make n 0.0) in
  let eps = 1e-12 *. Array.fold_left (fun acc v -> acc +. Float.abs v) 1.0 x in
  for k = 0 to n / 2 do
    let at part = Printf.sprintf "%s n=%d %s k=%d" what n part k in
    check_close ~eps (at "re") fre.(k) sre.(k);
    check_close ~eps (at "im") fim.(k) sim.(k)
  done;
  (sre, sim)

let test_power_of_two () =
  Alcotest.(check bool) "1" true (Fft.is_power_of_two 1);
  Alcotest.(check bool) "2" true (Fft.is_power_of_two 2);
  Alcotest.(check bool) "1024" true (Fft.is_power_of_two 1024);
  Alcotest.(check bool) "0" false (Fft.is_power_of_two 0);
  Alcotest.(check bool) "3" false (Fft.is_power_of_two 3);
  Alcotest.(check bool) "-4" false (Fft.is_power_of_two (-4));
  Alcotest.(check int) "next 1" 1 (Fft.next_power_of_two 0);
  Alcotest.(check int) "next 5" 8 (Fft.next_power_of_two 5);
  Alcotest.(check int) "next 8" 8 (Fft.next_power_of_two 8)

let test_fft_matches_naive_dft () =
  List.iter
    (fun n -> ignore (check_against_naive ~what:"random" n (random_signal n)))
    pow2_sizes

let test_fft_plan_matches_naive_dft () =
  (* A clone of the domain's cached plan, on zero-extended signals of
     both parities. *)
  List.iter
    (fun n ->
      let plan = Fft.Real.clone (Fft.Real.cached_plan n) in
      List.iter
        (fun len ->
          ignore (check_against_naive ~what:"clone" ~plan n (random_signal len)))
        [ n; max 1 ((n / 2) - 1) ])
    pow2_sizes

let test_fft_impulse () =
  (* A unit impulse at 0 transforms to all ones; one at j to the
     twiddles exp (-2 i pi k j / n). *)
  List.iter
    (fun n ->
      let x = Array.make n 0.0 in
      x.(0) <- 1.0;
      let sre, sim = check_against_naive ~what:"impulse" n x in
      Array.iter (fun v -> check_close "impulse re" 1.0 v) sre;
      Array.iter (fun v -> check_close "impulse im" 0.0 v) sim;
      let j = n / 3 in
      let x = Array.make n 0.0 in
      x.(j) <- 1.0;
      ignore (check_against_naive ~what:"shifted impulse" n x))
    pow2_sizes

let test_fft_constant () =
  (* A constant puts all its energy in bin 0; a +-1 alternation all in
     the Nyquist bin n/2. *)
  List.iter
    (fun n ->
      let sre, sim =
        check_against_naive ~what:"constant" n (Array.make n 2.5)
      in
      check_close "dc" (2.5 *. float_of_int n) sre.(0);
      for k = 1 to n / 2 do
        check_close ~eps:1e-12 "zero bin re" 0.0 (sre.(k) /. float_of_int n);
        check_close ~eps:1e-12 "zero bin im" 0.0 (sim.(k) /. float_of_int n)
      done;
      let alt = Array.init n (fun i -> if i land 1 = 0 then 1.0 else -1.0) in
      let sre, _ = check_against_naive ~what:"alternating" n alt in
      check_close "nyquist" (float_of_int n) sre.(n / 2))
    pow2_sizes

let test_fft_parseval () =
  (* Over the half-spectrum: sum x^2 = (|X_0|^2 + 2 sum_{0<k<h} |X_k|^2
     + |X_h|^2) / n. *)
  List.iter
    (fun n ->
      let x = random_signal n in
      let sre, sim = real_forward (Fft.Real.make_plan n) x in
      let h = n / 2 in
      let bin k = (sre.(k) *. sre.(k)) +. (sim.(k) *. sim.(k)) in
      let freq = ref (bin 0 +. bin h) in
      for k = 1 to h - 1 do
        freq := !freq +. (2.0 *. bin k)
      done;
      let time = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x in
      check_close ~eps:1e-11 (Printf.sprintf "parseval n=%d" n) time
        (!freq /. float_of_int n))
    pow2_sizes

let test_fft_roundtrip () =
  (* Zero-padded signals (len < n, odd and even) come back as the
     signal followed by numerical zeros. *)
  List.iter
    (fun n ->
      List.iter
        (fun len ->
          let x = random_signal len in
          let plan = Fft.Real.make_plan n in
          let sre, sim = real_forward plan x in
          let back = Array.make n nan in
          Fft.Real.inverse_ip plan ~spec_re:sre ~spec_im:sim ~signal:back
            ~len:n;
          for j = 0 to n - 1 do
            check_close ~eps:1e-12
              (Printf.sprintf "n=%d len=%d j=%d" n len j)
              (if j < len then x.(j) else 0.0)
              back.(j)
          done)
        [ n; (n / 2) + 1; max 1 ((n / 3) - 1) ])
    pow2_sizes

let test_fft_plan_roundtrip () =
  (* The per-domain memo hands back one plan per size, and its scratch
     carries no state between calls: a reused plan reproduces a fresh
     plan's spectrum bit for bit, also after transforming other data. *)
  List.iter
    (fun n ->
      let plan = Fft.Real.cached_plan n in
      Alcotest.(check bool) "memoized" true (plan == Fft.Real.cached_plan n);
      Alcotest.(check int) "size" n (Fft.Real.size plan);
      Alcotest.(check int) "bins" ((n / 2) + 1) (Fft.Real.spectrum_length plan);
      let x = random_signal n in
      let fresh = real_forward (Fft.Real.make_plan n) x in
      ignore (real_forward plan (random_signal n));
      Alcotest.(check bool)
        "bitwise after reuse" true
        (fresh = real_forward plan x))
    pow2_sizes

let test_fft_rejects_bad_input () =
  let plan = Fft.Real.make_plan 16 in
  let spec () = Array.make 9 0.0 in
  let big n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Alcotest.check_raises "forward short signal"
    (Invalid_argument "Fft.Real.forward_ip: signal shorter than len") (fun () ->
      Fft.Real.forward_ip plan ~signal:(Array.make 8 0.0) ~len:12
        ~spec_re:(spec ()) ~spec_im:(spec ()));
  Alcotest.check_raises "inverse bad len"
    (Invalid_argument "Fft.Real.inverse_ip: bad len") (fun () ->
      Fft.Real.inverse_ip plan ~spec_re:(spec ()) ~spec_im:(spec ())
        ~signal:(Array.make 32 0.0) ~len:17);
  Alcotest.check_raises "inverse short signal"
    (Invalid_argument "Fft.Real.inverse_ip: signal shorter than len") (fun () ->
      Fft.Real.inverse_ip plan ~spec_re:(spec ()) ~spec_im:(spec ())
        ~signal:(Array.make 8 0.0) ~len:16);
  Alcotest.check_raises "synthesize short spectrum"
    (Invalid_argument "Fft.Real: spectrum buffers shorter than n/2 + 1")
    (fun () ->
      Fft.Real.synthesize_ip plan ~spec_re:(Array.make 4 0.0) ~spec_im:(spec ())
        ~signal:(Array.make 16 0.0) ~len:16);
  let bad_length = Invalid_argument "Fft.Real.convolve: bad signal or dst length" in
  let convolve ?(kernel = spec ()) signal ~len dst ~dst_len =
    Fft.Real.convolve plan ~kernel_re:kernel ~kernel_im:(spec ())
      ~spec_re:(spec ()) ~spec_im:(spec ()) ~signal ~len ~dst ~dst_len
  in
  Alcotest.check_raises "convolve short signal" bad_length (fun () ->
      convolve (big 8) ~len:16 (big 16) ~dst_len:16);
  Alcotest.check_raises "convolve short dst" bad_length (fun () ->
      convolve (big 16) ~len:16 (big 8) ~dst_len:16);
  Alcotest.check_raises "convolve dst longer than plan" bad_length (fun () ->
      convolve (big 32) ~len:16 (big 32) ~dst_len:17);
  Alcotest.check_raises "convolve short kernel spectrum"
    (Invalid_argument "Fft.Real: spectrum buffers shorter than n/2 + 1")
    (fun () ->
      convolve ~kernel:(Array.make 4 0.0) (big 16) ~len:16 (big 16)
        ~dst_len:16)

(* Sizes a real plan refuses: below 2, odd, and even but not a power of
   two. *)
let bad_plan_sizes = [ 0; -2; 1; 7; 6; 14; 1500; 1536; 1920 ]

let bad_plan_size = "Fft.Real.make_plan: size must be a power of two >= 2"

let test_fft_plan_rejects_bad_input () =
  (* The memoized constructor refuses exactly what make_plan refuses. *)
  List.iter
    (fun n ->
      Alcotest.check_raises (string_of_int n) (Invalid_argument bad_plan_size)
        (fun () -> ignore (Fft.Real.cached_plan n)))
    bad_plan_sizes

(* ------------------------------------------------------------------ *)
(* Convolution *)

let test_convolution_small_exact () =
  let c = Convolution.direct [| 1.0; 2.0 |] [| 3.0; 4.0; 5.0 |] in
  Alcotest.(check int) "length" 4 (Array.length c);
  check_close "c0" 3.0 c.(0);
  check_close "c1" 10.0 c.(1);
  check_close "c2" 13.0 c.(2);
  check_close "c3" 10.0 c.(3)

let big_of a =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (Array.length a) in
  Array.iteri (fun i x -> Bigarray.Array1.set v i x) a;
  v

(* Planned circular convolution of [signal] with the plan's kernel: the
   plan's [n] wrapped values as an array. *)
let run_circular plan ~n signal =
  let dst = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Convolution.execute_real_circular plan (Convolution.local_scratch plan)
    ~signal:(big_of signal) ~len:(Array.length signal) ~dst;
  Array.init n (Bigarray.Array1.get dst)

(* The oracle for a circular plan: the linear product folded mod n. *)
let wrapped_direct a b n =
  let out = Array.make n 0.0 in
  Array.iteri (fun i v -> out.(i mod n) <- out.(i mod n) +. v) (Convolution.direct a b);
  out

let test_convolution_fft_matches_direct () =
  (* 37 + 101 - 1 = 137 linear values wrap onto 128. *)
  let a = Array.init 37 (fun _ -> next_float () -. 0.3) in
  let b = Array.init 101 (fun _ -> next_float () -. 0.6) in
  let plan = Convolution.make_real_plan ~size:128 ~kernel:b ~max_signal:37 in
  let f = run_circular plan ~n:128 a in
  Array.iteri
    (fun i v -> check_close ~eps:1e-10 "cell" v f.(i))
    (wrapped_direct a b 128)

let test_convolution_identity () =
  let a = Array.init 20 (fun _ -> next_float ()) in
  let plan = Convolution.make_real_plan ~size:64 ~kernel:[| 1.0 |] ~max_signal:20 in
  let c = run_circular plan ~n:64 a in
  Array.iteri
    (fun i v -> check_close "identity" (if i < 20 then a.(i) else 0.0) v)
    c

let test_convolution_commutative () =
  (* Both orders on 64 points, the smallest size both plans admit. *)
  let a = Array.init 17 (fun _ -> next_float ()) in
  let b = Array.init 25 (fun _ -> next_float ()) in
  let ab =
    run_circular (Convolution.make_real_plan ~size:64 ~kernel:b ~max_signal:17) ~n:64 a
  and ba =
    run_circular (Convolution.make_real_plan ~size:64 ~kernel:a ~max_signal:25) ~n:64 b
  in
  Array.iteri (fun i v -> check_close ~eps:1e-10 "commute" v ba.(i)) ab

let test_convolution_preserves_mass () =
  (* Convolution of pmfs is a pmf, and wrapping keeps the mass. *)
  let a = Array.init 50 (fun _ -> next_float ()) in
  let b = Array.init 64 (fun _ -> next_float ()) in
  Array_ops.normalize a;
  Array_ops.normalize b;
  let plan = Convolution.make_real_plan ~size:128 ~kernel:b ~max_signal:50 in
  check_close ~eps:1e-10 "mass" 1.0 (Array_ops.sum (run_circular plan ~n:128 a))

let test_convolution_plan_matches () =
  (* The solver's shape off the doubling ladder: m = 100 bins, a 2m + 1
     kernel, wrapped on the next power of two above 2m. *)
  let m = 100 in
  let n = Fft.next_power_of_two (2 * m) in
  let kernel = Array.init ((2 * m) + 1) (fun _ -> next_float ()) in
  let plan = Convolution.make_real_plan ~size:n ~kernel ~max_signal:(m + 1) in
  let signal = Array.init 77 (fun _ -> next_float ()) in
  let got = run_circular plan ~n signal in
  Array.iteri
    (fun i v -> check_close ~eps:1e-10 "plan cell" v got.(i))
    (wrapped_direct signal kernel n)

let test_convolution_plan_rejects_long_signal () =
  let plan = Convolution.make_real_plan ~size:8 ~kernel:[| 1.0 |] ~max_signal:4 in
  let v n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Alcotest.check_raises "too long"
    (Invalid_argument "Convolution.execute_real_circular: bad signal length")
    (fun () ->
      Convolution.execute_real_circular plan (Convolution.local_scratch plan)
        ~signal:(v 8) ~len:5 ~dst:(v 8));
  let other = Convolution.make_real_plan ~size:16 ~kernel:[| 1.0 |] ~max_signal:9 in
  Alcotest.check_raises "scratch of another size"
    (Invalid_argument "Convolution.execute_real_circular: scratch of another size")
    (fun () ->
      Convolution.execute_real_circular other (Convolution.local_scratch plan)
        ~signal:(v 16) ~len:4 ~dst:(v 16))

let test_convolution_plan_rejects_size () =
  (* max_signal 65 admits every power of two from 2 (65 - 1) = 128 on:
     128 wraps onto the states the solver's fold collapses, 256 and 512
     hold the whole linear product.  Smaller sizes are refused, and so
     are sizes in range that are not powers of two. *)
  let kernel = Array.make 129 1.0 in
  List.iter
    (fun size ->
      ignore (Convolution.make_real_plan ~size ~kernel ~max_signal:65))
    [ 128; 256; 512 ];
  List.iter
    (fun size ->
      Alcotest.check_raises (string_of_int size)
        (Invalid_argument
           "Convolution.make_real_plan: size below 2 (max_signal - 1)")
        (fun () ->
          ignore (Convolution.make_real_plan ~size ~kernel ~max_signal:65)))
    [ 64; 120; 126 ];
  List.iter
    (fun size ->
      Alcotest.check_raises (string_of_int size) (Invalid_argument bad_plan_size)
        (fun () ->
          ignore (Convolution.make_real_plan ~size ~kernel ~max_signal:65)))
    [ 140; 192 ]

let test_convolution_execute_into_matches () =
  let m = 64 in
  let kernel = Array.init ((2 * m) + 1) (fun _ -> next_float ()) in
  let plan = Convolution.make_real_plan ~size:(2 * m) ~kernel ~max_signal:(m + 1) in
  let signal = Array.init (m + 1) (fun _ -> next_float ()) in
  (* An oversized, dirty destination: the prefix is the result. *)
  let dst = big_of (Array.make (3 * m) Float.nan) in
  Convolution.execute_real_circular plan (Convolution.local_scratch plan)
    ~signal:(big_of signal) ~len:(m + 1) ~dst;
  Array.iteri
    (fun i v -> check_close ~eps:1e-10 "execute cell" v dst.{i})
    (wrapped_direct signal kernel (2 * m));
  Alcotest.check_raises "dst too short"
    (Invalid_argument "Convolution.execute_real_circular: dst shorter than size")
    (fun () ->
      Convolution.execute_real_circular plan (Convolution.local_scratch plan)
        ~signal:(big_of signal) ~len:(m + 1)
        ~dst:(big_of (Array.make 10 0.0)))

(* ------------------------------------------------------------------ *)
(* Special functions *)

let test_log_gamma_known_values () =
  check_close "lgamma 1" 0.0 (Special.log_gamma 1.0);
  check_close "lgamma 2" 0.0 (Special.log_gamma 2.0);
  check_close ~eps:1e-12 "lgamma 5" (log 24.0) (Special.log_gamma 5.0);
  check_close ~eps:1e-12 "lgamma 0.5" (log (sqrt Float.pi))
    (Special.log_gamma 0.5);
  (* Recurrence Gamma(x+1) = x Gamma(x). *)
  let x = 3.7 in
  check_close ~eps:1e-12 "recurrence"
    (Special.log_gamma x +. log x)
    (Special.log_gamma (x +. 1.0))

let test_gamma_p_q_complement () =
  List.iter
    (fun (a, x) ->
      check_close ~eps:1e-12 "P+Q=1" 1.0
        (Special.gamma_p ~a ~x +. Special.gamma_q ~a ~x))
    [ (0.5, 0.3); (1.0, 1.0); (2.5, 7.0); (10.0, 3.0); (10.0, 30.0) ]

let test_gamma_p_exponential_case () =
  (* P(1, x) = 1 - exp(-x). *)
  List.iter
    (fun x ->
      check_close ~eps:1e-12 "P(1,x)"
        (1.0 -. exp (-.x))
        (Special.gamma_p ~a:1.0 ~x))
    [ 0.1; 0.5; 1.0; 2.0; 5.0 ]

let test_erf_known_values () =
  check_close "erf 0" 0.0 (Special.erf 0.0);
  (* Reference values from Abramowitz & Stegun. *)
  check_close ~eps:1e-7 "erf 0.5" 0.5204998778 (Special.erf 0.5);
  check_close ~eps:1e-7 "erf 1" 0.8427007929 (Special.erf 1.0);
  check_close ~eps:1e-7 "erf 2" 0.9953222650 (Special.erf 2.0);
  check_close ~eps:1e-9 "erf -1" (-0.8427007929) (Special.erf (-1.0) +. 0.0)

let test_erfc_tail_no_cancellation () =
  (* erfc(5) ~ 1.537e-12; a naive 1 - erf(5) loses all digits. *)
  let v = Special.erfc 5.0 in
  check_close ~eps:1e-6 "erfc 5" 1.5374597944280351e-12 v

let test_erf_inv_roundtrip () =
  List.iter
    (fun p ->
      check_close ~eps:1e-10 "roundtrip" p (Special.erf (Special.erf_inv p)))
    [ -0.999; -0.9; -0.5; -0.1; 0.0; 0.1; 0.5; 0.9; 0.99; 0.9999 ]

let test_normal_cdf_quantile () =
  check_close ~eps:1e-12 "cdf 0" 0.5 (Special.normal_cdf 0.0);
  check_close ~eps:1e-9 "cdf 1.96" 0.9750021048517795
    (Special.normal_cdf 1.96);
  List.iter
    (fun p ->
      check_close ~eps:1e-10 "quantile roundtrip" p
        (Special.normal_cdf (Special.normal_quantile p)))
    [ 1e-8; 1e-4; 0.025; 0.5; 0.8413; 0.999; 1.0 -. 1e-8 ]

let test_special_rejects_bad_input () =
  Alcotest.check_raises "erf_inv 1"
    (Invalid_argument "Special.erf_inv: argument must lie in (-1, 1)")
    (fun () -> ignore (Special.erf_inv 1.0));
  Alcotest.check_raises "quantile 0"
    (Invalid_argument "Special.normal_quantile: argument must lie in (0, 1)")
    (fun () -> ignore (Special.normal_quantile 0.0));
  Alcotest.check_raises "gamma_p a<0"
    (Invalid_argument "Special.gamma_p: a must be positive") (fun () ->
      ignore (Special.gamma_p ~a:(-1.0) ~x:1.0))

(* ------------------------------------------------------------------ *)
(* Summation *)

let test_kahan_hard_case () =
  (* 1 + 1e16 - 1e16 = 1 exactly with compensation. *)
  let a = [| 1.0; 1e16; -1e16 |] in
  check_close "kahan" 1.0 (Summation.kahan a)

let test_kahan_many_small () =
  let n = 1_000_000 in
  let a = Array.make n 0.1 in
  check_close ~eps:1e-12 "many small" (float_of_int n *. 0.1)
    (Summation.kahan a)

let test_kahan_slice () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "slice" 5.0 (Summation.kahan_slice a ~pos:1 ~len:2);
  Alcotest.check_raises "oob"
    (Invalid_argument "Summation.kahan_slice: slice out of bounds") (fun () ->
      ignore (Summation.kahan_slice a ~pos:2 ~len:3))

let test_accumulator_streaming () =
  let acc = Summation.create () in
  for _ = 1 to 1000 do
    Summation.add acc 0.001
  done;
  check_close ~eps:1e-13 "stream" 1.0 (Summation.total acc)

(* ------------------------------------------------------------------ *)
(* Quadrature *)

let test_simpson_polynomial_exact () =
  (* Simpson is exact on cubics. *)
  let f x = (2.0 *. x *. x *. x) -. x +. 3.0 in
  let exact = (2.0 /. 4.0 *. 16.0) -. (4.0 /. 2.0) +. (3.0 *. 2.0) in
  check_close ~eps:1e-12 "cubic" exact
    (Quadrature.simpson ~f ~a:0.0 ~b:2.0 ~eps:1e-12)

let test_simpson_transcendental () =
  check_close ~eps:1e-10 "sin" 2.0
    (Quadrature.simpson ~f:sin ~a:0.0 ~b:Float.pi ~eps:1e-12);
  check_close ~eps:1e-10 "exp" (exp 1.0 -. 1.0)
    (Quadrature.simpson ~f:exp ~a:0.0 ~b:1.0 ~eps:1e-12)

let test_simpson_reversed_bounds () =
  check_close ~eps:1e-10 "reversed" (-2.0)
    (Quadrature.simpson ~f:sin ~a:Float.pi ~b:0.0 ~eps:1e-12)

let test_simpson_to_infinity () =
  (* int_0^inf e^-t dt = 1. *)
  check_close ~eps:1e-8 "exp tail" 1.0
    (Quadrature.simpson_to_infinity ~f:(fun t -> exp (-.t)) ~a:0.0 ~eps:1e-10);
  (* int_1^inf t^-2 dt = 1. *)
  check_close ~eps:1e-6 "power tail" 1.0
    (Quadrature.simpson_to_infinity ~f:(fun t -> 1.0 /. (t *. t)) ~a:1.0
       ~eps:1e-10)

(* ------------------------------------------------------------------ *)
(* Roots *)

let test_bisection_sqrt2 () =
  let root =
    Roots.bisection ~f:(fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0 ()
  in
  check_close ~eps:1e-10 "sqrt2" (sqrt 2.0) root

let test_bisection_rejects_non_bracket () =
  Alcotest.check_raises "no bracket"
    (Invalid_argument "Roots.bisection: interval does not bracket a root")
    (fun () -> ignore (Roots.bisection ~f:(fun x -> x +. 10.0) ~lo:0.0 ~hi:1.0 ()))

(* ------------------------------------------------------------------ *)
(* Array_ops *)

let test_linspace () =
  let a = Array_ops.linspace 0.0 1.0 5 in
  Alcotest.(check int) "len" 5 (Array.length a);
  check_close "first" 0.0 a.(0);
  check_close "mid" 0.5 a.(2);
  check_close "last" 1.0 a.(4)

let test_logspace () =
  let a = Array_ops.logspace 1.0 100.0 3 in
  check_close ~eps:1e-12 "first" 1.0 a.(0);
  check_close ~eps:1e-12 "mid" 10.0 a.(1);
  check_close ~eps:1e-12 "last" 100.0 a.(2)

let test_mean_variance () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "mean" 2.5 (Array_ops.mean a);
  check_close "variance" 1.25 (Array_ops.variance a)

let test_normalize () =
  let a = [| 1.0; 3.0 |] in
  Array_ops.normalize a;
  check_close "n0" 0.25 a.(0);
  check_close "n1" 0.75 a.(1);
  Alcotest.check_raises "zero"
    (Invalid_argument "Array_ops.normalize: sum must be positive") (fun () ->
      Array_ops.normalize [| 0.0; 0.0 |])

(* ------------------------------------------------------------------ *)
(* Wavelet *)

let test_wavelet_filters_orthonormal () =
  List.iter
    (fun filter ->
      let h = Wavelet.filter_coefficients filter in
      let sumsq = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 h in
      check_close ~eps:1e-12 "unit energy" 1.0 sumsq;
      let total = Array.fold_left ( +. ) 0.0 h in
      check_close ~eps:1e-12 "sum sqrt2" (sqrt 2.0) total)
    [ Wavelet.Haar; Wavelet.Daubechies4 ]

let test_wavelet_roundtrip () =
  List.iter
    (fun filter ->
      let x = Array.init 64 (fun _ -> next_float () -. 0.5) in
      let approx, detail = Wavelet.dwt filter x in
      Alcotest.(check int) "half length" 32 (Array.length approx);
      let back = Wavelet.idwt filter ~approx ~detail in
      Array.iteri
        (fun i v -> check_close ~eps:1e-12 "reconstruction" x.(i) v)
        back)
    [ Wavelet.Haar; Wavelet.Daubechies4 ]

let test_wavelet_parseval () =
  List.iter
    (fun filter ->
      let x = Array.init 128 (fun _ -> next_float ()) in
      let approx, detail = Wavelet.dwt filter x in
      let e a = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 a in
      check_close ~eps:1e-10 "energy preserved" (e x) (e approx +. e detail))
    [ Wavelet.Haar; Wavelet.Daubechies4 ]

let test_wavelet_d4_kills_linear_trend () =
  (* Two vanishing moments: interior detail coefficients of a linear
     ramp vanish (boundary wrap-around coefficients excepted). *)
  let x = Array.init 64 (fun i -> 3.0 +. (0.5 *. float_of_int i)) in
  let _, detail = Wavelet.dwt Wavelet.Daubechies4 x in
  for i = 0 to 29 do
    check_close ~eps:1e-10 (Printf.sprintf "interior %d" i) 0.0 detail.(i)
  done;
  (* Haar does NOT annihilate a ramp (only constants). *)
  let _, haar_detail = Wavelet.dwt Wavelet.Haar x in
  Alcotest.(check bool) "haar sees the ramp" true
    (Float.abs haar_detail.(5) > 0.1)

let test_wavelet_decompose_structure () =
  let x = Array.init 256 (fun _ -> next_float ()) in
  let d = Wavelet.decompose Wavelet.Haar x in
  Alcotest.(check bool) "several octaves" true
    (Array.length d.Wavelet.details >= 5);
  Alcotest.(check int) "finest octave size" 128
    (Array.length d.Wavelet.details.(0));
  let d2 = Wavelet.decompose ~max_level:2 Wavelet.Haar x in
  Alcotest.(check int) "max level respected" 2
    (Array.length d2.Wavelet.details)

let test_wavelet_rejects_bad_input () =
  Alcotest.check_raises "odd length"
    (Invalid_argument
       "Wavelet.dwt: input length must be even and >= filter length")
    (fun () -> ignore (Wavelet.dwt Wavelet.Haar (Array.make 7 0.0)))

(* ------------------------------------------------------------------ *)
(* Linalg *)

let test_linalg_solve_known_system () =
  let a = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let b = [| 5.0; 10.0 |] in
  let x = Linalg.solve a b in
  check_close "x0" 1.0 x.(0);
  check_close "x1" 3.0 x.(1);
  check_close "residual" 0.0 (Linalg.residual_norm a x b)

let test_linalg_solve_needs_pivoting () =
  (* Zero on the diagonal: fails without partial pivoting. *)
  let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Linalg.solve a [| 2.0; 3.0 |] in
  check_close "x0" 3.0 x.(0);
  check_close "x1" 2.0 x.(1)

let test_linalg_random_roundtrip () =
  let n = 12 in
  let a =
    Array.init n (fun _ -> Array.init n (fun _ -> next_float () -. 0.5))
  in
  let x_true = Array.init n (fun _ -> next_float () *. 10.0) in
  let b = Linalg.mat_vec a x_true in
  let x = Linalg.solve a b in
  Array.iteri
    (fun i v -> check_close ~eps:1e-8 (Printf.sprintf "x%d" i) x_true.(i) v)
    x

let test_linalg_rejects_singular () =
  Alcotest.check_raises "singular" (Failure "Linalg: singular matrix")
    (fun () ->
      ignore (Linalg.solve [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] [| 1.0; 1.0 |]))

let test_linalg_rejects_bad_shapes () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Linalg: matrix must be square") (fun () ->
      ignore (Linalg.solve [| [| 1.0; 2.0 |] |] [| 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Real-input transforms *)

let test_real_forward_matches_naive () =
  (* Full-length signals at every plan size, and the zero-extended
     short signals ([len < n], odd and even) the estimators transform. *)
  List.iter
    (fun n ->
      ignore (check_against_naive n (random_signal n));
      if n > 2 then begin
        List.iter
          (fun len ->
            ignore (check_against_naive ~what:"padded" n (random_signal len)))
          [ (n / 2) + 1; n / 2 ]
      end)
    real_sizes

let test_real_roundtrip_exact_sizes () =
  List.iter
    (fun n ->
      let x = random_signal n in
      let plan = Fft.Real.make_plan n in
      let h = n / 2 in
      let sre = Array.make (h + 1) 0.0 and sim = Array.make (h + 1) 0.0 in
      Fft.Real.forward_ip plan ~signal:x ~len:n ~spec_re:sre ~spec_im:sim;
      let back = Array.make n nan in
      Fft.Real.inverse_ip plan ~spec_re:sre ~spec_im:sim ~signal:back ~len:n;
      Array.iteri
        (fun j v ->
          check_close ~eps:1e-12 (Printf.sprintf "n=%d j=%d" n j) v back.(j))
        x)
    real_sizes

let test_real_synthesize_matches_hermitian_sum () =
  let n = 32 in
  let h = n / 2 in
  let sre = Array.init (h + 1) (fun _ -> next_float ()) in
  let sim = Array.init (h + 1) (fun _ -> next_float ()) in
  (* A Hermitian spectrum has real endpoint bins. *)
  sim.(0) <- 0.0;
  sim.(h) <- 0.0;
  (* Oracle: y_j = sum_{k=0}^{n-1} X_k exp (-2 i pi j k / n) with the
     upper half the conjugate mirror of the lower. *)
  let expect =
    Array.init n (fun j ->
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          let xr, xi =
            if k <= h then (sre.(k), sim.(k))
            else (sre.(n - k), -.sim.(n - k))
          in
          let ang = -2.0 *. Float.pi *. float_of_int (j * k) /. float_of_int n in
          acc := !acc +. (xr *. cos ang) -. (xi *. sin ang)
        done;
        !acc)
  in
  let plan = Fft.Real.make_plan n in
  let y = Array.make n nan in
  Fft.Real.synthesize_ip plan ~spec_re:sre ~spec_im:sim ~signal:y ~len:n;
  Array.iteri
    (fun j v -> check_close ~eps:1e-10 (Printf.sprintf "j=%d" j) v y.(j))
    expect

let test_real_plan_rejects_bad_input () =
  List.iter
    (fun n ->
      Alcotest.check_raises (string_of_int n) (Invalid_argument bad_plan_size)
        (fun () -> ignore (Fft.Real.make_plan n)))
    bad_plan_sizes;
  let plan = Fft.Real.make_plan 16 in
  Alcotest.check_raises "short spectrum"
    (Invalid_argument "Fft.Real: spectrum buffers shorter than n/2 + 1")
    (fun () ->
      Fft.Real.forward_ip plan ~signal:(Array.make 16 0.0) ~len:16
        ~spec_re:(Array.make 8 0.0) ~spec_im:(Array.make 9 0.0));
  Alcotest.check_raises "bad len"
    (Invalid_argument "Fft.Real.forward_ip: bad len") (fun () ->
      Fft.Real.forward_ip plan ~signal:(Array.make 32 0.0) ~len:17
        ~spec_re:(Array.make 9 0.0) ~spec_im:(Array.make 9 0.0))

let test_execute_real_circular_matches_wrapped_direct () =
  let m = 8 in
  let n = 2 * m in
  let kernel = Array.init ((2 * m) + 1) (fun _ -> next_float ()) in
  let signal = Array.init (m + 1) (fun _ -> next_float ()) in
  let plan = Convolution.make_real_plan ~size:n ~kernel ~max_signal:(m + 1) in
  let src = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  let dst = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill src 0.0;
  Array.iteri (fun i v -> Bigarray.Array1.set src i v) signal;
  Convolution.execute_real_circular plan
    (Convolution.local_scratch plan)
    ~signal:src ~len:(m + 1) ~dst;
  (* Oracle: the linear convolution folded modulo n. *)
  let linear = Convolution.direct signal kernel in
  let expect = Array.make n 0.0 in
  Array.iteri
    (fun i v -> expect.(i mod n) <- expect.(i mod n) +. v)
    linear;
  for i = 0 to n - 1 do
    check_close ~eps:1e-12 (Printf.sprintf "i=%d" i) expect.(i)
      (Bigarray.Array1.get dst i)
  done

let test_real_convolution_no_allocation () =
  (* The steady-state entry point must not touch the OCaml heap: two
     circular plans per solver grid size, one on the domain's scratch
     and one on scratch of its own, measured after a warmup round.  The
     sizes cover both parities of log2 (the butterflies pair stages,
     with one lone radix-2 pass when the count is odd), the smallest and
     a large solver grid, and grids off the doubling ladder whose plan
     is the next power of two above 2m.  Bytecode boxes floats
     everywhere, so the pin only holds on native builds. *)
  if Sys.backend_type = Sys.Native then
    List.iter
      (fun m ->
        let n = Fft.next_power_of_two (2 * m) in
        let kernel = Array.init ((2 * m) + 1) (fun _ -> next_float ()) in
        let signal = Array.init (m + 1) (fun _ -> next_float ()) in
        let circ = Convolution.make_real_plan ~size:n ~kernel ~max_signal:(m + 1) in
        let second =
          Convolution.make_real_plan ~size:n ~kernel:signal ~max_signal:(m + 1)
        in
        let local = Convolution.local_scratch circ
        and own = Convolution.make_scratch second in
        let src = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
        let dst = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
        Bigarray.Array1.fill src 0.0;
        Array.iteri (fun i v -> Bigarray.Array1.set src i v) signal;
        let run () =
          Convolution.execute_real_circular circ local ~signal:src
            ~len:(m + 1) ~dst;
          Convolution.execute_real_circular second own ~signal:src
            ~len:(m + 1) ~dst
        in
        run ();
        let before = Gc.minor_words () in
        run ();
        let after = Gc.minor_words () in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "minor words allocated at m = %d" m)
          0.0 (after -. before))
      [ 16; 32; 24; 120; 128; 2048; 4096; 100; 750 ]

(* ------------------------------------------------------------------ *)
(* Bitwise oracle: the radix-2 transform and unfused convolution
   sequence of the earlier engine, kept verbatim as test code.  The
   fused kernel must reproduce every output bit of it. *)

module Oracle = struct
  type plan = {
    p2_size : int;
    bitrev : int array;  (* bitrev.(i) is i with log2 n bits reversed. *)
    wre : float array;  (* cos of the forward angle -2 pi k / len. *)
    wim : float array;  (* sin of the forward angle (<= 0 half-plane). *)
  }

  let make_pow2_plan n =
    let bitrev = Array.make n 0 in
    for i = 1 to n - 1 do
      (* Shift the previous reversal right and bring in the new low bit. *)
      bitrev.(i) <- (bitrev.(i lsr 1) lsr 1) lor (if i land 1 = 0 then 0 else n lsr 1)
    done;
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
    { p2_size = n; bitrev; wre; wim }

  (* The in-place power-of-two butterflies.  [conjugate = false] is the
     forward transform; [true] runs the inverse (without the 1/n scaling)
     by negating the table's sine.  Performs no heap allocation. *)
  let transform_pow2 plan ~conjugate re im =
    let n = plan.p2_size in
    let bitrev = plan.bitrev in
    for i = 0 to n - 1 do
      let j = Array.unsafe_get bitrev i in
      if i < j then begin
        let tr = Array.unsafe_get re i and ti = Array.unsafe_get im i in
        Array.unsafe_set re i (Array.unsafe_get re j);
        Array.unsafe_set im i (Array.unsafe_get im j);
        Array.unsafe_set re j tr;
        Array.unsafe_set im j ti
      end
    done;
    let wre = plan.wre and wim = plan.wim in
    let sign = if conjugate then -1.0 else 1.0 in
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let offset = half - 1 in
      let i = ref 0 in
      while !i < n do
        for k = 0 to half - 1 do
          let cr = Array.unsafe_get wre (offset + k)
          and ci = sign *. Array.unsafe_get wim (offset + k) in
          let a = !i + k in
          let b = a + half in
          let rb = Array.unsafe_get re b and ib = Array.unsafe_get im b in
          let tr = (rb *. cr) -. (ib *. ci) and ti = (rb *. ci) +. (ib *. cr) in
          let ra = Array.unsafe_get re a and ia = Array.unsafe_get im a in
          Array.unsafe_set re b (ra -. tr);
          Array.unsafe_set im b (ia -. ti);
          Array.unsafe_set re a (ra +. tr);
          Array.unsafe_set im a (ia +. ti)
        done;
        i := !i + !len
      done;
      len := !len * 2
    done

  (* The parent's real-input layer on float arrays: pack in natural
     order, the complex transform above (which bit-reverses in place),
     then the split / load passes, one pass each. *)
  type real_plan = {
    n : int;
    h : int;
    sub : plan;
    ifac : float;
    tre : float array;
    tim : float array;
    pre : float array;
    pim : float array;
  }

  let make_real n =
    let h = n / 2 in
    let tre = Array.make (h + 1) 1.0 and tim = Array.make (h + 1) 0.0 in
    for k = 0 to h do
      let ang = -2.0 *. Float.pi *. float_of_int k /. float_of_int n in
      tre.(k) <- cos ang;
      tim.(k) <- sin ang
    done;
    {
      n;
      h;
      sub = make_pow2_plan h;
      ifac = 0.5 /. float_of_int h;
      tre;
      tim;
      pre = Array.make h 0.0;
      pim = Array.make h 0.0;
    }

  let pack t signal len =
    let pairs = len / 2 in
    for l = 0 to pairs - 1 do
      t.pre.(l) <- signal.(2 * l);
      t.pim.(l) <- signal.((2 * l) + 1)
    done;
    let next =
      if len land 1 = 1 then begin
        t.pre.(pairs) <- signal.(len - 1);
        t.pim.(pairs) <- 0.0;
        pairs + 1
      end
      else pairs
    in
    Array.fill t.pre next (t.h - next) 0.0;
    Array.fill t.pim next (t.h - next) 0.0

  let forward t signal len =
    let h = t.h in
    let spec_re = Array.make (h + 1) 0.0 and spec_im = Array.make (h + 1) 0.0 in
    pack t signal len;
    transform_pow2 t.sub ~conjugate:false t.pre t.pim;
    let pre = t.pre and pim = t.pim in
    let zr0 = pre.(0) and zi0 = pim.(0) in
    spec_re.(0) <- zr0 +. zi0;
    spec_im.(0) <- 0.0;
    spec_re.(h) <- zr0 -. zi0;
    spec_im.(h) <- 0.0;
    let k = ref 1 in
    while 2 * !k < h do
      let kk = !k in
      let j = h - kk in
      let zrk = pre.(kk) and zik = pim.(kk) in
      let zrj = pre.(j) and zij = pim.(j) in
      let er = 0.5 *. (zrk +. zrj) and ei = 0.5 *. (zik -. zij) in
      let our = 0.5 *. (zik +. zij) and oui = 0.5 *. (zrj -. zrk) in
      let tr = t.tre.(kk) and ti = t.tim.(kk) in
      let pr = (our *. tr) -. (oui *. ti) in
      let pi = (our *. ti) +. (oui *. tr) in
      spec_re.(kk) <- er +. pr;
      spec_im.(kk) <- ei +. pi;
      spec_re.(j) <- er -. pr;
      spec_im.(j) <- pi -. ei;
      incr k
    done;
    if h land 1 = 0 && h >= 2 then begin
      let mid = h / 2 in
      spec_re.(mid) <- pre.(mid);
      spec_im.(mid) <- -.pim.(mid)
    end;
    (spec_re, spec_im)

  (* [conj]/[fac] as in the parent: the normalized inverse, or the
     unnormalized Hermitian synthesis.  Returns the first [len] samples. *)
  let backward t (spec_re, spec_im) ~conj ~fac len =
    let h = t.h in
    let sign = if conj then -1.0 else 1.0 in
    for k = 0 to h - 1 do
      let j = h - k in
      let xrk = spec_re.(k) and xik = sign *. spec_im.(k) in
      let xrj = spec_re.(j) and xij = sign *. spec_im.(j) in
      let er = xrk +. xrj and ei = xik -. xij in
      let dr = xrk -. xrj and di = xik +. xij in
      let tr = t.tre.(k) and ti = t.tim.(k) in
      let our = (dr *. tr) +. (di *. ti) in
      let oui = (di *. tr) -. (dr *. ti) in
      t.pre.(k) <- fac *. (er -. oui);
      t.pim.(k) <- fac *. (ei +. our)
    done;
    transform_pow2 t.sub ~conjugate:true t.pre t.pim;
    Array.init len (fun i -> if i land 1 = 0 then t.pre.(i / 2) else t.pim.(i / 2))

  let inverse t spec len = backward t spec ~conj:false ~fac:t.ifac len
  let synthesize t spec len = backward t spec ~conj:true ~fac:1.0 len

  (* The parent's unfused convolution: forward the signal, multiply by the
     kernel half-spectrum bin by bin, inverse. *)
  let convolve t (kre, kim) signal ~len ~dst_len =
    let sre, sim = forward t signal len in
    for i = 0 to t.h do
      let ar = sre.(i) and ai = sim.(i) in
      let br = kre.(i) and bi = kim.(i) in
      sre.(i) <- (ar *. br) -. (ai *. bi);
      sim.(i) <- (ar *. bi) +. (ai *. br)
    done;
    inverse t (sre, sim) dst_len

  (* The kernel spectrum of a plan of size n, the kernel wrapped mod n
     when it is longer. *)
  let kernel_spectrum t kernel =
    let nk = Array.length kernel in
    if nk <= t.n then forward t kernel nk
    else begin
      let wrapped = Array.make t.n 0.0 in
      Array.iteri (fun i v -> wrapped.(i mod t.n) <- wrapped.(i mod t.n) +. v) kernel;
      forward t wrapped t.n
    end
end

(* Every real-transform entry point and both planned convolutions
   against the oracle, bit for bit (Int64.bits_of_float, so signed zeros
   count).  Sizes walk every power of two up to 2^15; signals include
   the solver's point-mass initial states and exact zeros, kernels are
   pmfs with exact-zero bins. *)
let oracle_sizes = List.init 15 (fun e -> 1 lsl (e + 1))

let same_bits what expect got =
  if Array.length expect <> Array.length got then
    QCheck.Test.fail_reportf "%s: length %d, expected %d" what
      (Array.length got) (Array.length expect);
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float got.(i) then
        QCheck.Test.fail_reportf "%s: index %d is %h, expected %h" what i
          got.(i) e)
    expect

(* A pmf of length [len] with about half its bins exactly zero. *)
let sparse_pmf rs len =
  let p =
    Array.init len (fun _ ->
        if Random.State.bool rs then 0.0 else Random.State.float rs 1.0)
  in
  let total = Array.fold_left ( +. ) 0.0 p in
  if total = 0.0 then (p.(0) <- 1.0; p) else Array.map (fun v -> v /. total) p

let oracle_signal rs shape len =
  match shape with
  | 0 -> Array.init len (fun i -> if i = 0 then 1.0 else 0.0)
  | 1 -> Array.init len (fun i -> if i = len - 1 then 1.0 else 0.0)
  | 2 -> Array.make len 0.0
  | 3 -> sparse_pmf rs len
  | _ ->
      Array.init len (fun _ ->
          match Random.State.int rs 4 with
          | 0 -> 0.0
          | 1 -> -0.0
          | _ -> Random.State.float rs 2.0 -. 1.0)

let array_of_big v = Array.init (Bigarray.Array1.dim v) (Bigarray.Array1.get v)

let prop_fused_matches_oracle =
  let gen =
    QCheck.Gen.(
      oneofl oracle_sizes >>= fun n ->
      quad (int_range 0 4) (int_range 1 (n / 2)) (int_range 1 (n / 2))
        (pair (int_range 1 (2 * n)) int)
      >|= fun c -> (n, c))
  in
  let print (n, (shape, len, nk, (nkc, seed))) =
    Printf.sprintf "n=%d shape=%d len=%d nk=%d nk_circ=%d seed=%d" n shape len
      nk nkc seed
  in
  QCheck.Test.make ~name:"fused real transforms match the oracle bitwise"
    ~count:120 (QCheck.make ~print gen)
    (fun (n, (shape, len, nk, (nkc, seed))) ->
      let rs = Random.State.make [| seed |] in
      let signal = oracle_signal rs shape len in
      let kernel = sparse_pmf rs nk and kernel_circ = sparse_pmf rs nkc in
      let o = Oracle.make_real n in
      let plan = Fft.Real.make_plan n in
      (* Forward, inverse, synthesize. *)
      let ore, oim = Oracle.forward o signal len in
      let sre, sim = real_forward plan signal in
      same_bits "forward re" ore sre;
      same_bits "forward im" oim sim;
      let back = Array.make n nan in
      Fft.Real.inverse_ip plan ~spec_re:ore ~spec_im:oim ~signal:back ~len:n;
      same_bits "inverse" (Oracle.inverse o (ore, oim) n) back;
      Fft.Real.synthesize_ip plan ~spec_re:ore ~spec_im:oim ~signal:back ~len:n;
      same_bits "synthesize" (Oracle.synthesize o (ore, oim) n) back;
      let kspec = Oracle.kernel_spectrum o kernel in
      (* Every [len] up to n / 2 fits a plan of max_signal n / 2 + 1,
         whose smallest admitted size is n. *)
      let max_signal = (n / 2) + 1 in
      (* Circular execute, the kernel wrapped when longer than n, and a
         second plan of the same size on scratch of its own. *)
      let circ =
        Convolution.make_real_plan ~size:n ~kernel:kernel_circ ~max_signal
      in
      let src = big_of signal and bdst = big_of (Array.make n nan) in
      Convolution.execute_real_circular circ (Convolution.local_scratch circ)
        ~signal:src ~len ~dst:bdst;
      same_bits "circular"
        (Oracle.convolve o (Oracle.kernel_spectrum o kernel_circ) signal ~len
           ~dst_len:n)
        (array_of_big bdst);
      let second = Convolution.make_real_plan ~size:n ~kernel ~max_signal in
      Convolution.execute_real_circular second (Convolution.make_scratch circ)
        ~signal:src ~len ~dst:bdst;
      same_bits "same-size plan, own scratch"
        (Oracle.convolve o kspec signal ~len ~dst_len:n)
        (array_of_big bdst);
      true)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_fft_roundtrip =
  QCheck.Test.make ~name:"fft inverse . forward = id" ~count:50
    QCheck.(
      pair (int_range 1 32)
        (list_of_size (Gen.return 32) (float_range (-100.0) 100.0)))
    (fun (len, xs) ->
      (* Any zero-extended prefix of a size-32 plan comes back. *)
      let x = Array.sub (Array.of_list xs) 0 len in
      let plan = Fft.Real.cached_plan 32 in
      let sre, sim = real_forward plan x in
      let back = Array.make len nan in
      Fft.Real.inverse_ip plan ~spec_re:sre ~spec_im:sim ~signal:back ~len;
      Array.for_all2
        (fun a b -> Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a))
        x back)

let prop_planned_fft_matches_naive =
  QCheck.Test.make ~name:"planned in-place fft matches naive dft" ~count:40
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.return 256) (float_range (-50.0) 50.0)))
    (fun (exponent, xs) ->
      let n = 1 lsl exponent in
      let x = Array.sub (Array.of_list xs) 0 n in
      let sre, sim = real_forward (Fft.Real.cached_plan n) x in
      let expect_re, expect_im =
        Fft.dft_naive ~re:(Array.copy x) ~im:(Array.make n 0.0)
      in
      let ok = ref true in
      for k = 0 to n / 2 do
        if
          Float.abs (sre.(k) -. expect_re.(k))
          > 1e-9 *. (1.0 +. Float.abs expect_re.(k))
          || Float.abs (sim.(k) -. expect_im.(k))
             > 1e-9 *. (1.0 +. Float.abs expect_im.(k))
        then ok := false
      done;
      !ok)

let prop_convolution_linear =
  QCheck.Test.make ~name:"convolution is linear in first argument" ~count:50
    QCheck.(
      pair
        (list_of_size (Gen.return 16) (float_range (-10.0) 10.0))
        (list_of_size (Gen.return 16) (float_range (-10.0) 10.0)))
    (fun (xs, ys) ->
      let a = Array.of_list xs and b = Array.of_list ys in
      let k = [| 0.5; -1.5; 2.0 |] in
      let sum = Array.mapi (fun i x -> x +. b.(i)) a in
      let c1 = Convolution.direct sum k in
      let c2 = Convolution.direct a k and c3 = Convolution.direct b k in
      Array.for_all
        (fun i ->
          Float.abs (c1.(i) -. (c2.(i) +. c3.(i)))
          <= 1e-9 *. (1.0 +. Float.abs c1.(i)))
        (Array.init (Array.length c1) (fun i -> i)))

let prop_erf_monotone =
  QCheck.Test.make ~name:"erf is monotone" ~count:100
    QCheck.(pair (float_range (-4.0) 4.0) (float_range (-4.0) 4.0))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Special.erf lo <= Special.erf hi +. 1e-15)

let prop_kahan_close_to_sorted_sum =
  QCheck.Test.make ~name:"kahan matches high-precision reference" ~count:50
    QCheck.(list_of_size (Gen.return 100) (float_range (-1e6) 1e6))
    (fun xs ->
      let a = Array.of_list xs in
      (* Reference: sort by magnitude ascending and sum. *)
      let sorted = Array.copy a in
      Array.sort (fun x y -> Float.compare (Float.abs x) (Float.abs y)) sorted;
      let reference = Array.fold_left ( +. ) 0.0 sorted in
      Float.abs (Summation.kahan a -. reference)
      <= 1e-6 *. (1.0 +. Float.abs reference))

(* Random real signals at a random plan size: the real engine must
   round-trip and agree with the complex DFT oracle to near machine
   precision at every plan size. *)
let rfft_size_gen = QCheck.oneofl real_sizes

let prop_rfft_roundtrip =
  QCheck.Test.make ~name:"real fft inverse . forward = id" ~count:60
    QCheck.(
      pair rfft_size_gen (list_of_size (Gen.return 512) (float_range (-100.0) 100.0)))
    (fun (n, xs) ->
      let data = Array.of_list xs in
      let x = Array.sub data 0 n in
      let plan = Fft.Real.make_plan n in
      let h = n / 2 in
      let sre = Array.make (h + 1) 0.0 and sim = Array.make (h + 1) 0.0 in
      Fft.Real.forward_ip plan ~signal:x ~len:n ~spec_re:sre ~spec_im:sim;
      let back = Array.make n nan in
      Fft.Real.inverse_ip plan ~spec_re:sre ~spec_im:sim ~signal:back ~len:n;
      Array.for_all2
        (fun a b -> Float.abs (a -. b) <= 1e-12 *. (1.0 +. Float.abs a))
        x back)

let prop_rfft_matches_complex =
  QCheck.Test.make ~name:"real fft matches complex fft on real input"
    ~count:60
    QCheck.(
      pair rfft_size_gen (list_of_size (Gen.return 512) (float_range (-50.0) 50.0)))
    (fun (n, xs) ->
      let data = Array.of_list xs in
      let x = Array.sub data 0 n in
      let re, im = Fft.dft_naive ~re:(Array.copy x) ~im:(Array.make n 0.0) in
      let plan = Fft.Real.make_plan n in
      let h = n / 2 in
      let sre = Array.make (h + 1) 0.0 and sim = Array.make (h + 1) 0.0 in
      Fft.Real.forward_ip plan ~signal:x ~len:n ~spec_re:sre ~spec_im:sim;
      let scale =
        Array.fold_left (fun acc v -> acc +. Float.abs v) 1.0 x
      in
      let ok = ref true in
      for k = 0 to h do
        if
          Float.abs (sre.(k) -. re.(k)) > 1e-12 *. scale
          || Float.abs (sim.(k) -. im.(k)) > 1e-12 *. scale
        then ok := false
      done;
      !ok)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "numerics"
    [
      ( "fft",
        [
          Alcotest.test_case "power-of-two helpers" `Quick test_power_of_two;
          Alcotest.test_case "matches naive DFT" `Quick
            test_fft_matches_naive_dft;
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "impulse" `Quick test_fft_impulse;
          Alcotest.test_case "constant" `Quick test_fft_constant;
          Alcotest.test_case "parseval" `Quick test_fft_parseval;
          Alcotest.test_case "rejects bad input" `Quick
            test_fft_rejects_bad_input;
          Alcotest.test_case "plan matches naive DFT" `Quick
            test_fft_plan_matches_naive_dft;
          Alcotest.test_case "plan roundtrip" `Quick test_fft_plan_roundtrip;
          Alcotest.test_case "plan rejects bad input" `Quick
            test_fft_plan_rejects_bad_input;
        ] );
      ( "real fft",
        [
          Alcotest.test_case "real forward matches naive DFT" `Quick
            test_real_forward_matches_naive;
          Alcotest.test_case "real roundtrip across plan sizes" `Quick
            test_real_roundtrip_exact_sizes;
          Alcotest.test_case "synthesize matches Hermitian sum" `Quick
            test_real_synthesize_matches_hermitian_sum;
          Alcotest.test_case "real plan rejects bad input" `Quick
            test_real_plan_rejects_bad_input;
          Alcotest.test_case "circular real conv matches wrapped direct"
            `Quick test_execute_real_circular_matches_wrapped_direct;
          Alcotest.test_case "real conv entry points allocation-free"
            `Quick test_real_convolution_no_allocation;
        ] );
      ( "convolution",
        [
          Alcotest.test_case "small exact" `Quick test_convolution_small_exact;
          Alcotest.test_case "fft matches direct" `Quick
            test_convolution_fft_matches_direct;
          Alcotest.test_case "identity kernel" `Quick
            test_convolution_identity;
          Alcotest.test_case "commutative" `Quick test_convolution_commutative;
          Alcotest.test_case "preserves probability mass" `Quick
            test_convolution_preserves_mass;
          Alcotest.test_case "plan matches direct" `Quick
            test_convolution_plan_matches;
          Alcotest.test_case "plan rejects long signal" `Quick
            test_convolution_plan_rejects_long_signal;
          Alcotest.test_case "plan rejects size outside range" `Quick
            test_convolution_plan_rejects_size;
          Alcotest.test_case "execute into dst matches" `Quick
            test_convolution_execute_into_matches;
        ] );
      ( "special",
        [
          Alcotest.test_case "log_gamma known values" `Quick
            test_log_gamma_known_values;
          Alcotest.test_case "gamma P + Q = 1" `Quick test_gamma_p_q_complement;
          Alcotest.test_case "gamma P(1, x) exponential" `Quick
            test_gamma_p_exponential_case;
          Alcotest.test_case "erf known values" `Quick test_erf_known_values;
          Alcotest.test_case "erfc far tail" `Quick
            test_erfc_tail_no_cancellation;
          Alcotest.test_case "erf_inv roundtrip" `Quick test_erf_inv_roundtrip;
          Alcotest.test_case "normal cdf/quantile" `Quick
            test_normal_cdf_quantile;
          Alcotest.test_case "rejects bad input" `Quick
            test_special_rejects_bad_input;
        ] );
      ( "summation",
        [
          Alcotest.test_case "cancellation case" `Quick test_kahan_hard_case;
          Alcotest.test_case "many small terms" `Quick test_kahan_many_small;
          Alcotest.test_case "slice" `Quick test_kahan_slice;
          Alcotest.test_case "streaming accumulator" `Quick
            test_accumulator_streaming;
        ] );
      ( "quadrature",
        [
          Alcotest.test_case "cubic exact" `Quick
            test_simpson_polynomial_exact;
          Alcotest.test_case "transcendental" `Quick
            test_simpson_transcendental;
          Alcotest.test_case "reversed bounds" `Quick
            test_simpson_reversed_bounds;
          Alcotest.test_case "semi-infinite" `Quick test_simpson_to_infinity;
        ] );
      ( "roots",
        [
          Alcotest.test_case "bisection sqrt2" `Quick test_bisection_sqrt2;
          Alcotest.test_case "bisection needs bracket" `Quick
            test_bisection_rejects_non_bracket;
        ] );
      ( "array_ops",
        [
          Alcotest.test_case "linspace" `Quick test_linspace;
          Alcotest.test_case "logspace" `Quick test_logspace;
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "normalize" `Quick test_normalize;
        ] );
      ( "wavelet",
        [
          Alcotest.test_case "filters orthonormal" `Quick
            test_wavelet_filters_orthonormal;
          Alcotest.test_case "roundtrip" `Quick test_wavelet_roundtrip;
          Alcotest.test_case "parseval" `Quick test_wavelet_parseval;
          Alcotest.test_case "D4 kills linear trend" `Quick
            test_wavelet_d4_kills_linear_trend;
          Alcotest.test_case "decompose structure" `Quick
            test_wavelet_decompose_structure;
          Alcotest.test_case "rejects bad input" `Quick
            test_wavelet_rejects_bad_input;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "known system" `Quick
            test_linalg_solve_known_system;
          Alcotest.test_case "pivoting" `Quick test_linalg_solve_needs_pivoting;
          Alcotest.test_case "random roundtrip" `Quick
            test_linalg_random_roundtrip;
          Alcotest.test_case "rejects singular" `Quick
            test_linalg_rejects_singular;
          Alcotest.test_case "rejects bad shapes" `Quick
            test_linalg_rejects_bad_shapes;
        ] );
      ( "properties",
        qcheck
          [
            prop_fft_roundtrip;
            prop_planned_fft_matches_naive;
            prop_convolution_linear;
            prop_erf_monotone;
            prop_kahan_close_to_sorted_sum;
            prop_rfft_roundtrip;
            prop_rfft_matches_complex;
            prop_fused_matches_oracle;
          ] );
    ]
