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

(* Real plan sizes are [2 h] with [h] any fast size, so this list walks
   every split shape: pure powers of two and the radix-3 / radix-5 /
   radix-15 decimation towers. *)
let real_sizes = [ 2; 4; 6; 8; 10; 12; 20; 24; 30; 48; 96; 120; 240; 480 ]

let pow2_sizes = [ 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048 ]

(* [2 h] for h = 3, 5 and 15 times powers of two. *)
let radix_sizes = [ 6; 10; 12; 30; 60; 96; 120; 160; 240; 480; 960; 1920 ]

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
let check_against_naive ?(what = "") n x =
  let sre, sim = real_forward (Fft.Real.make_plan n) x in
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
  List.iter
    (fun n -> ignore (check_against_naive ~what:"random" n (random_signal n)))
    radix_sizes

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
    (pow2_sizes @ radix_sizes)

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
    (pow2_sizes @ radix_sizes)

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
    (pow2_sizes @ radix_sizes)

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
    (pow2_sizes @ radix_sizes)

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
    (pow2_sizes @ radix_sizes)

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
  Alcotest.check_raises "forward_big short signal"
    (Invalid_argument "Fft.Real.forward_big: signal shorter than len")
    (fun () ->
      Fft.Real.forward_big plan ~signal:(big 8) ~len:16 ~spec_re:(spec ())
        ~spec_im:(spec ()));
  Alcotest.check_raises "inverse_big bad len"
    (Invalid_argument "Fft.Real.inverse_big: bad len") (fun () ->
      Fft.Real.inverse_big plan ~spec_re:(spec ()) ~spec_im:(spec ())
        ~signal:(big 32) ~len:(-1))

let test_fft_plan_rejects_bad_input () =
  (* The memoized constructor refuses exactly what make_plan refuses. *)
  let bad =
    "Fft.Real.make_plan: size must be even with n/2 of the form \
     2^a*{1,3,5,15}"
  in
  List.iter
    (fun n ->
      Alcotest.check_raises (string_of_int n) (Invalid_argument bad) (fun () ->
          ignore (Fft.Real.cached_plan n)))
    [ 0; -2; 7; 14; 1500 ]

(* ------------------------------------------------------------------ *)
(* Convolution *)

let test_convolution_small_exact () =
  let c = Convolution.direct [| 1.0; 2.0 |] [| 3.0; 4.0; 5.0 |] in
  Alcotest.(check int) "length" 4 (Array.length c);
  check_close "c0" 3.0 c.(0);
  check_close "c1" 10.0 c.(1);
  check_close "c2" 13.0 c.(2);
  check_close "c3" 10.0 c.(3)

let test_convolution_fft_matches_direct () =
  let a = Array.init 37 (fun _ -> next_float () -. 0.3) in
  let b = Array.init 101 (fun _ -> next_float () -. 0.6) in
  let d = Convolution.direct a b and f = Convolution.fft a b in
  Alcotest.(check int) "length" (Array.length d) (Array.length f);
  Array.iteri (fun i v -> check_close ~eps:1e-10 "cell" v f.(i)) d

let test_convolution_identity () =
  let a = Array.init 20 (fun _ -> next_float ()) in
  let c = Convolution.fft a [| 1.0 |] in
  Array.iteri (fun i v -> check_close "identity" a.(i) v) c

let test_convolution_commutative () =
  let a = Array.init 13 (fun _ -> next_float ()) in
  let b = Array.init 29 (fun _ -> next_float ()) in
  let ab = Convolution.auto a b and ba = Convolution.auto b a in
  Array.iteri (fun i v -> check_close ~eps:1e-10 "commute" v ba.(i)) ab

let test_convolution_preserves_mass () =
  (* Convolution of pmfs is a pmf. *)
  let a = Array.init 50 (fun _ -> next_float ()) in
  let b = Array.init 64 (fun _ -> next_float ()) in
  Array_ops.normalize a;
  Array_ops.normalize b;
  let c = Convolution.fft a b in
  check_close ~eps:1e-10 "mass" 1.0 (Array_ops.sum c)

let test_convolution_plan_matches () =
  let kernel = Array.init 201 (fun _ -> next_float ()) in
  let plan = Convolution.make_real_plan ~kernel ~max_signal:100 () in
  let signal = Array.init 77 (fun _ -> next_float ()) in
  let expected = Convolution.direct signal kernel in
  let got = Array.make (Array.length expected) nan in
  Convolution.execute plan signal ~dst:got;
  Alcotest.(check int) "length" (Array.length expected) (Array.length got);
  Array.iteri (fun i v -> check_close ~eps:1e-10 "plan cell" v got.(i)) expected

let test_convolution_plan_rejects_long_signal () =
  let plan = Convolution.make_real_plan ~kernel:[| 1.0 |] ~max_signal:4 () in
  Alcotest.check_raises "too long"
    (Invalid_argument "Convolution.execute: signal longer than plan")
    (fun () ->
      Convolution.execute plan (Array.make 5 0.0) ~dst:(Array.make 8 0.0))

let test_convolution_direct_into_matches () =
  let a = Array.init 33 (fun _ -> next_float () -. 0.4) in
  let b = Array.init 65 (fun _ -> next_float () -. 0.2) in
  let expected = Convolution.direct a b in
  (* An oversized, dirty destination: only the prefix is the result. *)
  let dst = Array.make 128 Float.nan in
  Convolution.direct_into a b ~dst;
  Array.iteri
    (fun i v -> check_close ~eps:1e-12 "direct_into cell" v dst.(i))
    expected;
  Alcotest.check_raises "dst too short"
    (Invalid_argument "Convolution.direct_into: dst too short") (fun () ->
      Convolution.direct_into a b ~dst:(Array.make 10 0.0))

let test_convolution_execute_into_matches () =
  let kernel = Array.init 129 (fun _ -> next_float ()) in
  let plan = Convolution.make_real_plan ~kernel ~max_signal:64 () in
  let signal = Array.init 64 (fun _ -> next_float ()) in
  let expected = Convolution.direct signal kernel in
  let dst = Array.make (Array.length expected) 0.0 in
  Convolution.execute plan signal ~dst;
  Array.iteri
    (fun i v -> check_close ~eps:1e-10 "execute cell" v dst.(i))
    expected;
  Alcotest.check_raises "dst too short"
    (Invalid_argument "Convolution.execute: dst too short") (fun () ->
      Convolution.execute plan signal ~dst:(Array.make 10 0.0))

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

let test_newton_bracketed () =
  let f x = cos x -. x in
  let df x = -.sin x -. 1.0 in
  let root = Roots.newton_bracketed ~f ~df ~lo:0.0 ~hi:1.0 () in
  check_close ~eps:1e-10 "dottie" 0.7390851332151607 root

let test_newton_with_bad_derivative_falls_back () =
  (* Zero derivative everywhere: must still converge by bisection. *)
  let f x = x -. 0.25 in
  let df _ = 0.0 in
  let root = Roots.newton_bracketed ~f ~df ~lo:0.0 ~hi:1.0 () in
  check_close ~eps:1e-9 "fallback" 0.25 root

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

let test_linalg_determinant () =
  check_close "2x2" (-2.0)
    (Linalg.determinant [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]);
  check_close "identity" 1.0
    (Linalg.determinant [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |]);
  check_close "singular" 0.0
    (Linalg.determinant [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |])

let test_linalg_rejects_singular () =
  Alcotest.check_raises "singular" (Failure "Linalg: singular matrix")
    (fun () ->
      ignore (Linalg.solve [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] [| 1.0; 1.0 |]))

let test_linalg_rejects_bad_shapes () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Linalg: matrix must be square") (fun () ->
      ignore (Linalg.solve [| [| 1.0; 2.0 |] |] [| 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Real-input transforms and mixed-radix plan sizes *)

let test_fast_size_helpers () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (string_of_int n) true (Fft.is_fast_size n))
    [ 1; 2; 3; 4; 5; 6; 8; 15; 48; 60; 240; 960; 1536; 1920; 4096 ];
  List.iter
    (fun n ->
      Alcotest.(check bool) (string_of_int n) false (Fft.is_fast_size n))
    [ 0; -4; 7; 9; 11; 14; 21; 25; 45; 100 ];
  List.iter
    (fun n ->
      let g = Fft.good_size n in
      Alcotest.(check bool) "good_size is fast" true (Fft.is_fast_size g);
      Alcotest.(check bool) "good_size >= n" true (g >= n))
    [ 1; 2; 17; 100; 1000; 1025; 1537; 3000 ];
  (* Cost-aware selection: just above 3 * 2^k the radix-3 grid wins, but
     just above 15 * 2^(k-1) the next power of two beats the slower
     15-smooth transform. *)
  Alcotest.(check int) "good_size 1500" 1536 (Fft.good_size 1500);
  Alcotest.(check int) "good_size 1025" 1280 (Fft.good_size 1025);
  Alcotest.(check int) "good_size 1537" 2048 (Fft.good_size 1537)

let test_any_plan_matches_naive () =
  (* Every fast half-size up to 64 — each mixed-radix shape the engine
     builds at small scale. *)
  List.iter
    (fun h ->
      if Fft.is_fast_size h then
        ignore (check_against_naive (2 * h) (random_signal (2 * h))))
    (List.init 64 (fun i -> i + 1))

let test_real_forward_matches_naive () =
  (* Full-length signals at every split shape, and the zero-extended
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
  let n = 24 in
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
  let bad =
    "Fft.Real.make_plan: size must be even with n/2 of the form \
     2^a*{1,3,5,15}"
  in
  List.iter
    (fun n ->
      Alcotest.check_raises (string_of_int n) (Invalid_argument bad) (fun () ->
          ignore (Fft.Real.make_plan n)))
    [ 0; -2; 7; 14; 1500 ];
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
  let plan =
    Convolution.make_real_plan ~size:n ~kernel ~max_signal:(m + 1) ()
  in
  let src = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  let dst = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill src 0.0;
  Array.iteri (fun i v -> Bigarray.Array1.set src i v) signal;
  Convolution.execute_real_circular plan ~signal:src ~len:(m + 1) ~dst;
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
  (* The steady-state entry points must not touch the OCaml heap: one
     real linear convolution and one circular one, measured after a
     warmup round.  Bytecode boxes floats everywhere, so the pin only
     holds on native builds. *)
  if Sys.backend_type = Sys.Native then begin
    let m = 16 in
    let kernel = Array.init ((2 * m) + 1) (fun _ -> next_float ()) in
    let signal = Array.init (m + 1) (fun _ -> next_float ()) in
    let lin = Convolution.make_real_plan ~kernel ~max_signal:(m + 1) () in
    let out = Array.make ((3 * m) + 1) 0.0 in
    let circ =
      Convolution.make_real_plan ~size:(2 * m) ~kernel ~max_signal:(m + 1) ()
    in
    let n = 2 * m in
    let src = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
    let dst = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
    Bigarray.Array1.fill src 0.0;
    Array.iteri (fun i v -> Bigarray.Array1.set src i v) signal;
    Convolution.execute lin signal ~dst:out;
    Convolution.execute_real_circular circ ~signal:src ~len:(m + 1) ~dst;
    let before = Gc.minor_words () in
    Convolution.execute lin signal ~dst:out;
    Convolution.execute_real_circular circ ~signal:src ~len:(m + 1) ~dst;
    let after = Gc.minor_words () in
    Alcotest.(check (float 0.0))
      "minor words allocated" 0.0 (after -. before)
  end

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
   precision across every split shape (pure pow2, radix-3/5/15). *)
let rfft_size_gen = QCheck.oneofl real_sizes

let prop_rfft_roundtrip =
  QCheck.Test.make ~name:"real fft inverse . forward = id" ~count:60
    QCheck.(
      pair rfft_size_gen (list_of_size (Gen.return 480) (float_range (-100.0) 100.0)))
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
      pair rfft_size_gen (list_of_size (Gen.return 480) (float_range (-50.0) 50.0)))
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
          Alcotest.test_case "fast-size helpers" `Quick
            test_fast_size_helpers;
          Alcotest.test_case "any-size plan matches naive DFT" `Quick
            test_any_plan_matches_naive;
          Alcotest.test_case "real forward matches naive DFT" `Quick
            test_real_forward_matches_naive;
          Alcotest.test_case "real roundtrip across split shapes" `Quick
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
          Alcotest.test_case "direct_into matches direct" `Quick
            test_convolution_direct_into_matches;
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
          Alcotest.test_case "newton dottie number" `Quick
            test_newton_bracketed;
          Alcotest.test_case "newton falls back to bisection" `Quick
            test_newton_with_bad_derivative_falls_back;
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
          Alcotest.test_case "determinant" `Quick test_linalg_determinant;
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
          ] );
    ]
