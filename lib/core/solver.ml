type params = {
  initial_bins : int;
  max_bins : int;
  tolerance : float;
  negligible_loss : float;
  max_iterations : int;
  stall_factor : float;
  warm_restart : bool;
}

let default_params =
  {
    initial_bins = 128;
    max_bins = 16384;
    tolerance = 0.2;
    negligible_loss = 1e-10;
    max_iterations = 200_000;
    stall_factor = 0.02;
    warm_restart = true;
  }

type result = {
  loss : float;
  lower_bound : float;
  upper_bound : float;
  iterations : int;
  bins : int;
  refinements : int;
  converged : bool;
}

(* An unconverged result stopped at the iteration budget or at the grid
   cap, and the result does not say which, so it prints what holds for
   both. *)
let pp_result fmt r =
  Format.fprintf fmt
    "loss=%.4g in [%.4g, %.4g] (%s after %d iterations, %d bins, %d \
     refinements)"
    r.loss r.lower_bound r.upper_bound
    (if r.converged then "converged" else "gap target not met")
    r.iterations r.bins r.refinements

let log_src = Logs.Src.create "lrd.solver" ~doc:"fluid queue loss solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Obs = Lrd_obs.Obs
module Resource = Lrd_obs.Resource

(* Solver telemetry.  Everything is recorded at check-period or
   per-solve granularity — never inside [Workspace.step] — so the
   zero-allocation step invariant is untouched and the instrumentation
   cost is amortized over [check_every] iterations.  The bound-gap
   trajectory keeps the most recent relative gaps ((upper - lower) /
   midpoint, the paper's 20% stopping ratio), which is the convergence
   curve Proposition II.1 predicts to be monotone in n and m. *)
let m_solves = Obs.Counter.make "solver/solves"
let m_iterations = Obs.Counter.make "solver/iterations"
let m_refinements = Obs.Counter.make "solver/refinements"
let m_warm_restarts = Obs.Counter.make "solver/warm_restarts"
let m_budget_exhausted = Obs.Counter.make "solver/budget_exhausted"
let m_extrapolations = Obs.Counter.make "solver/extrapolations"
let m_gap_trajectory = Obs.Trajectory.make "solver/bound_gap_rel"
let m_last_gap = Obs.Gauge.make "solver/last_bound_gap_rel"
let m_solve_span = Obs.Span.make "solver/solve_seconds"
let m_solve_alloc = Resource.Alloc.make "solver/solve_minor_words"

(* ------------------------------------------------------------------ *)
(* Per-level workspace.

   One resolution level owns everything a Lindley step touches: per
   chain the occupancy pmf, the convolution plan for its discretized
   increment kernel and the convolution output buffer; and the per-bin
   expected-overflow table.
   All of it is allocated when the level is built — [step] then
   advances both chains with zero heap allocation, which is what makes
   the 200k-iteration sweeps FLOP-bound instead of GC-bound. *)

module Workspace = struct
  type vec = Lrd_numerics.Fft.vec

  (* One Lindley step convolves the pmf (support [0, m]) with the
     kernel (support [0, 2m]); the linear output u lives on [0, 3m], and
     index s stands for the value (s - m) d.  A circular real-transform
     plan of n = next_power_of_two (2m) points produces u WRAPPED modulo
     n, u^[t] = u[t] + u[t + n].  The wrap-around is controlled
     aliasing: t + n <= 3m forces t <= 3m - n <= m, so it corrupts only
     the states the boundary fold collapses into the empty state anyway
     (and when n > 3m nothing wraps), and the middle states m+1 .. 2m-1
     are alias-free.  The full-state mass sum_{s >= 2m}
     u[s] is recovered EXACTLY by an O(m) correlation of the pmf with
     the kernel's tail cumulative (tail.(j) = sum_{l >= 2m - j} ker.(l)),
     and the empty-state mass by total-mass accounting — more
     accurately than summing FFT output, since the tail masses that
     drive deep-buffer loss are computed from nonnegative products
     instead of cancelling transform noise. *)

  (* One chain's state.  The two chains of a level share only the
     read-only grid data, so they may step on two domains at once: the
     floor chain always steps on the domain advancing the solve and
     borrows that domain's transform scratch; the ceiling chain, which
     may step on a crew domain, owns its scratch. *)
  type chain = {
    plan : Lrd_numerics.Convolution.real_plan;
    tail : vec;  (* tail.(j) = sum_{l >= 2m-j} ker.(l) *)
    q : vec;  (* occupancy pmf, length m + 1 *)
    conv : vec;  (* wrapped convolution output *)
    own : Lrd_numerics.Convolution.scratch option;
    floor : bool;  (* the floor chain; the ceiling chain's test is mirrored *)
    prev : vec;  (* q at the start of the check period *)
    cand : vec;  (* an extrapolation's candidate, then its step *)
    spare : vec;  (* the candidate before its step *)
    attempt : attempt;
  }

  (* All floats, so stored flat: writing a field allocates nothing. *)
  and attempt = {
    mutable stretch : float;  (* > 0: extrapolate at the next period *)
    mutable lambda : float;  (* last period's weight; nan: no attempt *)
  }

  type t = {
    m : int;
    n : int;  (* wrap size of the convolution output, >= 2m *)
    width : float;  (* grid step d = buffer / m *)
    overflow : vec;  (* E[W_l | Q = j d], j = 0 .. m. *)
    lower : chain;  (* floor chain *)
    upper : chain;  (* ceiling chain *)
  }

  let vec_make len : vec =
    let v = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout len in
    Bigarray.Array1.fill v 0.0;
    v

  let bins t = t.m
  let grid_step t = t.width

  let pmf_copy (q : vec) m =
    Array.init (m + 1) (fun j -> Bigarray.Array1.get q j)

  let lower_pmf t = pmf_copy t.lower.q t.m
  let upper_pmf t = pmf_copy t.upper.q t.m

  (* Downward Neumaier cumulative of the kernel top: tail.(j) holds
     sum_{l >= 2m - j} ker.(l) for j = 0 .. m, so the full-state mass
     of a step is the correlation sum_j q_j tail.(j). *)
  let tail_cumulative kernel ~m =
    let tail = vec_make (m + 1) in
    let s = ref 0.0 and c = ref 0.0 in
    for i = 2 * m downto m do
      let x = kernel.(i) in
      let t' = !s +. x in
      if Float.abs !s >= Float.abs x then c := !c +. (!s -. t' +. x)
      else c := !c +. (x -. t' +. !s);
      s := t';
      let j = (2 * m) - i in
      if j <= m then Bigarray.Array1.set tail j (!s +. !c)
    done;
    tail

  let make workload ~buffer ~m =
    let bins = Workload.discretize workload ~buffer ~bins:m in
    let n = Lrd_numerics.Fft.next_power_of_two (2 * m) in
    let chain kernel ~floor =
      let plan =
        Lrd_numerics.Convolution.make_real_plan ~size:n ~kernel
          ~max_signal:(m + 1)
      in
      let own =
        if floor then None
        else Some (Lrd_numerics.Convolution.make_scratch plan)
      in
      let q = vec_make (m + 1) in
      Bigarray.Array1.set q (if floor then 0 else m) 1.0;
      {
        plan;
        tail = tail_cumulative kernel ~m;
        q;
        conv = vec_make n;
        own;
        floor;
        prev = vec_make (m + 1);
        cand = vec_make (m + 1);
        spare = vec_make (m + 1);
        attempt = { stretch = 0.0; lambda = Float.nan };
      }
    in
    let lower = chain bins.Workload.lower ~floor:true in
    let upper = chain bins.Workload.upper ~floor:false in
    let overflow = vec_make (m + 1) in
    let ov = Workload.overflow_table workload ~buffer ~bins:m in
    for j = 0 to m do
      Bigarray.Array1.set overflow j ov.(j)
    done;
    { m; n; width = bins.Workload.step; overflow; lower; upper }

  (* Fold the wrapped convolution [u] back onto the grid in place
     (eqs. 19-20): mass below 0 collapses into the empty state, mass
     above B into the full state.  The full-state mass comes from the
     tail correlation against the OLD pmf (still intact in q — the
     convolution reads but never writes it).  The empty-state mass is
     the wrapped prefix sum_{t <= m} u^[t], which counts every aliased
     term u[t + n] once, plus the alias-free full-state entries
     2m .. n-1 (none when n = 2m), minus that full-state mass.  FFT
     rounding can leave tiny negatives / drift, so clamp and rescale to
     keep the pmf a probability vector.

     The Neumaier sums are written out inline rather than through
     [Summation]: without flambda a cross-module call that takes or
     returns a float boxes it, and [Float.max] likewise, which would
     break the zero-allocation invariant of [step].  Local refs compile
     to unboxed mutable variables, so this whole function stays off the
     heap.  A local helper closure would re-box the refs; the Neumaier
     body is therefore repeated verbatim in each of the sums. *)
  let fold t (u : vec) (q : vec) (tail : vec) =
    let m = t.m in
    let s = ref 0.0 and c = ref 0.0 in
    for j = 0 to m do
      let x =
        Bigarray.Array1.unsafe_get q j *. Bigarray.Array1.unsafe_get tail j
      in
      let t' = !s +. x in
      if Float.abs !s >= Float.abs x then c := !c +. (!s -. t' +. x)
      else c := !c +. (x -. t' +. !s);
      s := t'
    done;
    let qm = !s +. !c in
    s := 0.0;
    c := 0.0;
    for i = 0 to m do
      let x = Bigarray.Array1.unsafe_get u i in
      let t' = !s +. x in
      if Float.abs !s >= Float.abs x then c := !c +. (!s -. t' +. x)
      else c := !c +. (x -. t' +. !s);
      s := t'
    done;
    for i = 2 * m to t.n - 1 do
      let x = Bigarray.Array1.unsafe_get u i in
      let t' = !s +. x in
      if Float.abs !s >= Float.abs x then c := !c +. (!s -. t' +. x)
      else c := !c +. (x -. t' +. !s);
      s := t'
    done;
    let q0 = !s +. !c -. qm in
    Bigarray.Array1.unsafe_set q 0 (if q0 > 0.0 then q0 else 0.0);
    for j = 1 to m - 1 do
      let v = Bigarray.Array1.unsafe_get u (m + j) in
      Bigarray.Array1.unsafe_set q j (if v > 0.0 then v else 0.0)
    done;
    Bigarray.Array1.unsafe_set q m (if qm > 0.0 then qm else 0.0);
    s := 0.0;
    c := 0.0;
    for i = 0 to m do
      let x = Bigarray.Array1.unsafe_get q i in
      let t' = !s +. x in
      if Float.abs !s >= Float.abs x then c := !c +. (!s -. t' +. x)
      else c := !c +. (x -. t' +. !s);
      s := t'
    done;
    let total = !s +. !c in
    if total > 0.0 && Float.abs (total -. 1.0) > 1e-15 then
      for j = 0 to m do
        Bigarray.Array1.unsafe_set q j (Bigarray.Array1.unsafe_get q j /. total)
      done

  (* One Lindley step of chain [c]'s kernel applied to the pmf [q] in
     place: the convolution wrapped mod n, then the boundary fold.  Zero
     heap allocation. *)
  let step_pmf t c (q : vec) =
    let scratch =
      match c.own with
      | Some s -> s
      | None -> Lrd_numerics.Convolution.local_scratch c.plan
    in
    Lrd_numerics.Convolution.execute_real_circular c.plan scratch ~signal:q
      ~len:(t.m + 1) ~dst:c.conv;
    fold t c.conv q c.tail

  let step_chain t c = step_pmf t c c.q

  let step t =
    step_chain t t.lower;
    step_chain t t.upper

  (* The rounding allowance of the stochastic-order test on a CDF
     difference at bin j: [noise_ulps] ulps of mass times sqrt (j + 1).
     Plain steps break their own chain's monotonicity by up to 5 such
     units, so a start the test accepts is monotone to the precision of
     the chain it starts (THEORY.md). *)
  let noise_ulps = 8.0

  (* Certified extrapolation (THEORY.md, "Certified extrapolation").
     The candidate c = q + s (q - prev) continues the last check
     period's motion geometrically, s capped so that c >= 0.  Stepping q
     (the period's first ordinary step) and c gives, per bin j, the CDF
     differences A = CDF(Pq) - CDF(q) and B = CDF(Pc) - CDF(c) - A, and
     the mixture y = (1 - lambda) q + lambda c passes the floor test
     P y >=st y iff A_j + lambda B_j <= 0 at every bin (the ceiling
     chain mirrors the sign).  The largest such lambda in [0, 1] is
     taken in closed form and the chain continues from
     P y = (1 - lambda) Pq + lambda Pc; lambda = 0 is the ordinary
     step.  Allocates nothing: every buffer is the level's. *)
  let extrapolate t c =
    let m = t.m in
    let q = c.q and prev = c.prev and cand = c.cand and spare = c.spare in
    let s = ref c.attempt.stretch in
    for j = 0 to m do
      let v = Bigarray.Array1.unsafe_get q j in
      let d = v -. Bigarray.Array1.unsafe_get prev j in
      if d < 0.0 && v < !s *. -.d then s := v /. -.d
    done;
    let s = !s in
    if not (s > 0.0) then begin
      step_chain t c;
      c.attempt.lambda <- 0.0
    end
    else begin
      for j = 0 to m do
        let v = Bigarray.Array1.unsafe_get q j in
        Bigarray.Array1.unsafe_set cand j
          (v +. (s *. (v -. Bigarray.Array1.unsafe_get prev j)))
      done;
      Bigarray.Array1.blit q prev;
      Bigarray.Array1.blit cand spare;
      step_chain t c;
      step_pmf t c cand;
      (* prev = q, spare = c, q = Pq, cand = Pc.  The last bin's CDF is
         the total mass, 1 on every side. *)
      let sign = if c.floor then 1.0 else -1.0 in
      let tol = noise_ulps *. epsilon_float in
      let a = ref 0.0 and ac = ref 0.0 in
      let lo = ref 0.0 and hi = ref 1.0 in
      for j = 0 to m - 1 do
        a :=
          !a
          +. (Bigarray.Array1.unsafe_get q j -. Bigarray.Array1.unsafe_get prev j);
        ac :=
          !ac
          +. Bigarray.Array1.unsafe_get cand j
          -. Bigarray.Array1.unsafe_get spare j;
        let av = (sign *. !a) -. (tol *. sqrt (float_of_int (j + 1)))
        and bv = sign *. (!ac -. !a) in
        if bv > 0.0 then begin
          if -.av < !hi *. bv then hi := -.av /. bv
        end
        else if bv < 0.0 then begin
          if -.av < !lo *. bv then lo := -.av /. bv
        end
        else if av > 0.0 then hi := -1.0
      done;
      let lambda = if !hi > 0.0 && !hi >= !lo then !hi else 0.0 in
      if lambda > 0.0 then
        for j = 0 to m do
          Bigarray.Array1.unsafe_set q j
            (((1.0 -. lambda) *. Bigarray.Array1.unsafe_get q j)
            +. (lambda *. Bigarray.Array1.unsafe_get cand j))
        done;
      c.attempt.lambda <- lambda
    end

  (* One check period of chain [c]: the extrapolation [attempt.stretch]
     requests, which takes the period's first ordinary step, then the
     snapshot the next request extrapolates from, then the ordinary
     steps that complete [steps]. *)
  let advance t c ~steps =
    let rest =
      if c.attempt.stretch > 0.0 then begin
        extrapolate t c;
        c.attempt.stretch <- 0.0;
        steps - 1
      end
      else begin
        c.attempt.lambda <- Float.nan;
        steps
      end
    in
    Bigarray.Array1.blit c.q c.prev;
    for _ = 1 to rest do
      step_chain t c
    done

  let period t ~steps ~stretch =
    t.lower.attempt.stretch <- stretch;
    t.upper.attempt.stretch <- stretch;
    advance t t.lower ~steps;
    advance t t.upper ~steps

  let loss_of t ~norm (q : vec) =
    let acc = Lrd_numerics.Summation.create () in
    for j = 0 to t.m do
      let p = Bigarray.Array1.unsafe_get q j in
      if p > 0.0 then
        Lrd_numerics.Summation.add acc (p *. Bigarray.Array1.unsafe_get t.overflow j)
    done;
    Lrd_numerics.Summation.total acc /. norm

  let losses t ~norm = (loss_of t ~norm t.lower.q, loss_of t ~norm t.upper.q)

  (* Footnote 3's doubling: adopt [src]'s chains as the initial state
     of [dst], which has twice the bins.  Old point j d sits exactly at
     new point 2j (d / 2), so the re-indexing is an exact copy that
     keeps both chains' bound property (Proposition II.1 (v)). *)
  let load ~src dst =
    if dst.m <> 2 * src.m then
      invalid_arg "Solver.Workspace.load: dst must have twice the bins";
    let copy (s : vec) (d : vec) =
      Bigarray.Array1.fill d 0.0;
      for j = 0 to src.m do
        Bigarray.Array1.set d (2 * j) (Bigarray.Array1.get s j)
      done
    in
    copy src.lower.q dst.lower.q;
    copy src.upper.q dst.upper.q

  let set_pmfs t ~lower ~upper =
    let set (q : vec) a =
      if Array.length a <> t.m + 1 then
        invalid_arg "Solver.Workspace.set_pmfs: a pmf must have m + 1 entries";
      Array.iteri (Bigarray.Array1.set q) a
    in
    set t.lower.q lower;
    set t.upper.q upper
end

type occupancy = {
  step : float;
  lower_pmf : float array;
  upper_pmf : float array;
}

let point_mass_occupancy =
  { step = 0.0; lower_pmf = [| 1.0 |]; upper_pmf = [| 1.0 |] }

let pmf_mean ~step pmf =
  let acc = Lrd_numerics.Summation.create () in
  Array.iteri
    (fun j p -> Lrd_numerics.Summation.add acc (p *. float_of_int j *. step))
    pmf;
  Lrd_numerics.Summation.total acc

let mean_occupancy occ =
  (pmf_mean ~step:occ.step occ.lower_pmf, pmf_mean ~step:occ.step occ.upper_pmf)

let pmf_ccdf ~step pmf ~threshold =
  let acc = Lrd_numerics.Summation.create () in
  Array.iteri
    (fun j p ->
      if float_of_int j *. step >= threshold then
        Lrd_numerics.Summation.add acc p)
    pmf;
  Float.min 1.0 (Lrd_numerics.Summation.total acc)

let occupancy_ccdf occ ~threshold =
  ( pmf_ccdf ~step:occ.step occ.lower_pmf ~threshold,
    pmf_ccdf ~step:occ.step occ.upper_pmf ~threshold )

let pmf_quantile ~step pmf ~p =
  let n = Array.length pmf in
  let rec go j cumulative =
    if j >= n - 1 then float_of_int (n - 1) *. step
    else begin
      let cumulative = cumulative +. pmf.(j) in
      if cumulative >= p -. 1e-15 then float_of_int j *. step
      else go (j + 1) cumulative
    end
  in
  go 0 0.0

let occupancy_quantile occ ~p =
  if not (p > 0.0 && p <= 1.0) then
    invalid_arg "Solver.occupancy_quantile: p must lie in (0, 1]";
  ( pmf_quantile ~step:occ.step occ.lower_pmf ~p,
    pmf_quantile ~step:occ.step occ.upper_pmf ~p )

let mean_virtual_delay occ ~service_rate =
  if not (service_rate > 0.0) then
    invalid_arg "Solver.mean_virtual_delay: service rate must be positive";
  let lo, hi = mean_occupancy occ in
  (lo /. service_rate, hi /. service_rate)

(* ------------------------------------------------------------------ *)
(* The solve loop.

   [State] is Proposition II.1's loop with its variables in a record,
   so a sweep can create a cell through a callback and then [run] it:
   step both chains [check_every] times, check the bounds, refine the
   grid when both have stalled, until a check finishes the solve.
   [solve] is [create] + [run]. *)

(* Bounds are checked after every [check_every]-th chain step and at
   the iteration budget. *)
let check_every = 16

module State = struct
  type t = {
    params : params;
    workload : Workload.t;
    norm : float;
    buffer : float;
    trivial : (result * occupancy) option;
    t0 : float;  (* [Obs.Span.start] at create *)
    w0 : float;  (* [Resource.Alloc.start] at create *)
    mutable ws : Workspace.t option;  (* the current level, once built *)
    mutable iterations : int;
    mutable refinements : int;
    mutable prev_lower : float;  (* bounds at the previous check (nan *)
    mutable prev_upper : float;  (* on a fresh level) *)
    mutable older_lower : float;  (* and at the one before *)
    mutable older_upper : float;
    mutable run_lower : int;  (* readings since the level began or the *)
    mutable run_upper : int;  (* chain last extrapolated *)
    mutable lower : float;  (* bounds at the latest check; nan before *)
    mutable upper : float;  (* the first one *)
    mutable finished : bool;
    mutable converged : bool;
    mutable batch : int;  (* ordinary steps of the current check period *)
    mutable extra : int;  (* 1 when the period extrapolates, else 0 *)
    floor_run : unit -> unit;  (* [batch] steps of one chain; built once *)
    ceiling_run : unit -> unit;  (* so a check period allocates nothing *)
  }

  let run_chain t chain =
    match t.ws with
    | Some ws -> Workspace.advance ws (chain ws) ~steps:t.batch
    | None -> ()

  (* A solve is one [solver/solve] slice and one sample of
     [solver/solve_seconds] and [solver/solve_minor_words], from
     [create] to the check that finishes it, so quantization, plan
     building and refinement all count; a trivial cell
     finishes in [create]. *)
  let close_solve t =
    if Obs.Trace.enabled () then Obs.Trace.end_ "solver/solve";
    Obs.Span.stop m_solve_span t.t0;
    Resource.Alloc.stop m_solve_alloc t.w0

  let create ?(params = default_params) ?cache model ~service_rate ~buffer =
    if not (service_rate > 0.0) then
      invalid_arg "Solver.solve: service rate must be positive";
    if not (buffer >= 0.0) then
      invalid_arg "Solver.solve: buffer must be nonnegative";
    if buffer = Float.infinity then
      invalid_arg "Solver.solve: buffer must be finite";
    let w0 = Resource.Alloc.start () in
    let t0 = Obs.Span.start () in
    if Obs.Trace.enabled () then Obs.Trace.begin_ "solver/solve";
    Obs.Counter.incr m_solves;
    (* The grid memo is this state's own: every grid refinement
       re-evaluates the survival functions on a superset of the coarser
       grid's points, while cells sharing a cached workload quantize
       other buffers, possibly on other domains. *)
    let workload =
      Workload.with_memo
        (match cache with
        | Some (cache, key) ->
            Workload.Cache.workload cache ~key model ~service_rate
        | None -> Workload.create model ~service_rate)
    in
    let norm =
      Model.mean_rate model
      *. model.Model.interarrival.Lrd_dist.Interarrival.mean
    in
    let trivial =
      if buffer = 0.0 then begin
        let loss = Workload.zero_buffer_loss workload in
        Some
          ( {
              loss;
              lower_bound = loss;
              upper_bound = loss;
              iterations = 0;
              bins = 0;
              refinements = 0;
              converged = true;
            },
            point_mass_occupancy )
      end
      else if Workload.max_increment workload <= 0.0 then
        (* No rate ever exceeds the service rate: the queue never
           grows. *)
        Some
          ( {
              loss = 0.0;
              lower_bound = 0.0;
              upper_bound = 0.0;
              iterations = 0;
              bins = params.initial_bins;
              refinements = 0;
              converged = true;
            },
            point_mass_occupancy )
      else None
    in
    let rec t =
      {
        params;
        workload;
        norm;
        buffer;
        trivial;
        t0;
        w0;
        ws = None;
        iterations = 0;
        refinements = 0;
        prev_lower = Float.nan;
        prev_upper = Float.nan;
        older_lower = Float.nan;
        older_upper = Float.nan;
        run_lower = 0;
        run_upper = 0;
        lower = Float.nan;
        upper = Float.nan;
        finished = trivial <> None;
        converged = trivial <> None;
        batch = 0;
        extra = 0;
        floor_run = (fun () -> run_chain t (fun ws -> ws.Workspace.lower));
        ceiling_run = (fun () -> run_chain t (fun ws -> ws.Workspace.upper));
      }
    in
    if t.finished then close_solve t;
    t

  let create_utilization ?params ?cache model ~utilization ~buffer_seconds =
    let c = Model.service_rate_for_utilization model ~utilization in
    create ?params ?cache model ~service_rate:c
      ~buffer:(buffer_seconds *. c)

  let bins t =
    match t.trivial with
    | Some (r, _) -> r.bins
    | None -> (
        match t.ws with
        | Some ws -> Workspace.bins ws
        | None -> t.params.initial_bins)

  (* Every resolution level, the first and a refinement's, starts
     here: close the current level's [solver/level] slice, if
     any, open [ws]'s, and start its bound history afresh.  Trace
     granularity mirrors the metric granularity: one slice per level
     plus refinement instants, never one per check period, which would
     flood the ring on 200k-iteration solves. *)
  let enter t ws =
    if Obs.Trace.enabled () then begin
      Option.iter
        (fun w -> Obs.Trace.end_ ~arg:(Workspace.bins w) "solver/level")
        t.ws;
      Obs.Trace.begin_ ~arg:(Workspace.bins ws) "solver/level"
    end;
    t.ws <- Some ws;
    t.prev_lower <- Float.nan;
    t.prev_upper <- Float.nan;
    t.older_lower <- Float.nan;
    t.older_upper <- Float.nan;
    t.run_lower <- 0;
    t.run_upper <- 0

  let finish t ws ~converged ~lo ~hi =
    if Obs.Trace.enabled () then
      Obs.Trace.end_ ~arg:(Workspace.bins ws) "solver/level";
    if not converged then Obs.Counter.incr m_budget_exhausted;
    t.lower <- lo;
    t.upper <- hi;
    t.finished <- true;
    t.converged <- converged;
    close_solve t

  let plateaued t previous current =
    Float.is_finite previous
    && Float.abs (previous -. current)
       <= t.params.stall_factor *. Float.max previous 1e-300

  (* A chain's last three readings of its bound, [older], [previous]
     and [current], taken [run] >= 3 checks into a stretch of ordinary
     steps, show a geometric approach to a limit when the ratio r of
     their two steps lies in (0, 1).  The stretch r / (1 - r) is then
     what remains of the approach in units of the last step; it is 0
     when the readings show no such approach. *)
  let stretch ~run older previous current =
    let r = (current -. previous) /. (previous -. older) in
    if run >= 3 && r > 0.0 && r < 1.0 then r /. (1.0 -. r) else 0.0

  (* The chain's limit as its geometric approach projects it; the
     current bound when there is no such approach. *)
  let projected ~run older previous current =
    current +. ((current -. previous) *. stretch ~run older previous current)

  (* Whether iterating on at this level may still meet the gap target:
     not known until both chains have three readings since their last
     jump, then whether their projected limits meet it. *)
  let closing t ~lo ~hi =
    t.run_lower < 3 || t.run_upper < 3
    ||
    let lo' = projected ~run:t.run_lower t.older_lower t.prev_lower lo
    and hi' = projected ~run:t.run_upper t.older_upper t.prev_upper hi in
    hi' -. lo' <= t.params.tolerance *. (hi' +. lo') /. 2.0

  (* The outcome of the check period's extrapolation on chain [c], if it
     attempted one. *)
  let note_attempt ws (c : Workspace.chain) =
    let lambda = c.Workspace.attempt.Workspace.lambda in
    if not (Float.is_nan lambda) then begin
      if lambda > 0.0 then Obs.Counter.incr m_extrapolations;
      if Obs.Trace.enabled () then
        Obs.Trace.instant ~arg:(Workspace.bins ws) "solver/extrapolate"
    end

  let check t ws =
    note_attempt ws ws.Workspace.lower;
    note_attempt ws ws.Workspace.upper;
    let lo, hi = Workspace.losses ws ~norm:t.norm in
    t.run_lower <- t.run_lower + 1;
    t.run_upper <- t.run_upper + 1;
    let gap = hi -. lo in
    let mid = (hi +. lo) /. 2.0 in
    Log.debug (fun f ->
        f "n=%d m=%d lower=%.4g upper=%.4g" t.iterations (Workspace.bins ws)
          lo hi);
    if Obs.enabled () then begin
      Obs.Counter.add m_iterations t.batch;
      let rel = if mid > 0.0 then gap /. mid else 0.0 in
      Obs.Trajectory.record m_gap_trajectory rel;
      Obs.Gauge.set m_last_gap rel
    end;
    t.lower <- lo;
    t.upper <- hi;
    if hi < t.params.negligible_loss then finish t ws ~converged:true ~lo ~hi
    else if gap <= t.params.tolerance *. mid then
      finish t ws ~converged:true ~lo ~hi
    else if t.iterations >= t.params.max_iterations then
      finish t ws ~converged:false ~lo ~hi
    else begin
      (* Refine only when BOTH chains have individually plateaued:
         while a chain is still mixing toward its stationary value
         (e.g. the ceiling chain draining a deep buffer), iterating at
         the current resolution is cheap and refinement buys nothing. *)
      let stalled =
        plateaued t t.prev_lower lo && plateaued t t.prev_upper hi
      in
      let m = Workspace.bins ws in
      if stalled && m * 2 <= t.params.max_bins then begin
        Log.debug (fun f -> f "refining grid to m=%d" (m * 2));
        let next = Workspace.make t.workload ~buffer:t.buffer ~m:(m * 2) in
        Obs.Counter.incr m_refinements;
        if Obs.Trace.enabled () then
          Obs.Trace.instant ~arg:(m * 2) "solver/refine";
        if t.params.warm_restart then begin
          Obs.Counter.incr m_warm_restarts;
          if Obs.Trace.enabled () then
            Obs.Trace.instant ~arg:(m * 2) "solver/warm_restart";
          Workspace.load ~src:ws next
        end;
        enter t next;
        t.refinements <- t.refinements + 1
      end
      else if stalled && not (closing t ~lo ~hi) then
        (* Both chains have plateaued at the finest allowed grid, and
           their projected limits stay apart: further iteration cannot
           close the gap.  Return the certified (if loose) bounds
           rather than burning the whole iteration budget at the most
           expensive level. *)
        finish t ws ~converged:false ~lo ~hi
      else begin
        let s_lower = stretch ~run:t.run_lower t.older_lower t.prev_lower lo
        and s_upper = stretch ~run:t.run_upper t.older_upper t.prev_upper hi in
        t.older_lower <- t.prev_lower;
        t.older_upper <- t.prev_upper;
        t.prev_lower <- lo;
        t.prev_upper <- hi;
        (* An extrapolation costs one extra step, so it needs a full
           period of budget after it; a jump starts the chain's readings
           afresh. *)
        if t.params.max_iterations - t.iterations > check_every then begin
          if s_lower > 0.0 then begin
            ws.Workspace.lower.Workspace.attempt.Workspace.stretch <- s_lower;
            t.run_lower <- 0;
            t.extra <- 1
          end;
          if s_upper > 0.0 then begin
            ws.Workspace.upper.Workspace.attempt.Workspace.stretch <- s_upper;
            t.run_upper <- 0;
            t.extra <- 1
          end
        end
      end
    end

  let run t =
    if not t.finished then begin
      if t.ws = None then
        enter t
          (Workspace.make t.workload ~buffer:t.buffer ~m:t.params.initial_bins);
      while not t.finished do
        (* The chains do not read each other between checks: the floor
           chain steps here, the ceiling chain on a crew domain when
           the crew is free, each in its own order, so the bits do not
           depend on where they ran. *)
        t.batch <- min check_every (t.params.max_iterations - t.iterations);
        Lrd_parallel.Pool.both t.floor_run t.ceiling_run;
        t.iterations <- t.iterations + t.batch + t.extra;
        t.extra <- 0;
        check t (Option.get t.ws)
      done
    end

  let result t =
    match t.trivial with
    | Some (r, _) -> r
    | None ->
        let lo = t.lower and hi = t.upper in
        {
          loss =
            (if hi < t.params.negligible_loss then 0.0
             else (lo +. hi) /. 2.0);
          lower_bound = lo;
          upper_bound = hi;
          iterations = t.iterations;
          bins = bins t;
          refinements = t.refinements;
          converged = t.converged;
        }

  let detailed t =
    match t.trivial with
    | Some d -> d
    | None ->
        let occ =
          match t.ws with
          | Some ws ->
              {
                step = Workspace.grid_step ws;
                lower_pmf = Workspace.lower_pmf ws;
                upper_pmf = Workspace.upper_pmf ws;
              }
          | None -> point_mass_occupancy
        in
        (result t, occ)
end

let solve_detailed ?params ?cache model ~service_rate ~buffer =
  let st = State.create ?params ?cache model ~service_rate ~buffer in
  State.run st;
  State.detailed st

let solve ?params ?cache model ~service_rate ~buffer =
  fst (solve_detailed ?params ?cache model ~service_rate ~buffer)

let solve_utilization ?params ?cache model ~utilization ~buffer_seconds =
  let c = Model.service_rate_for_utilization model ~utilization in
  solve ?params ?cache model ~service_rate:c ~buffer:(buffer_seconds *. c)

type snapshot = {
  iteration : int;
  lower_pmf : float array;
  upper_pmf : float array;
  lower_loss : float;
  upper_loss : float;
}

let iterate_snapshots model ~service_rate ~buffer ~bins ~at =
  if not (buffer > 0.0) then
    invalid_arg "Solver.iterate_snapshots: buffer must be positive";
  let sorted = List.sort_uniq compare at in
  if sorted <> at then
    invalid_arg "Solver.iterate_snapshots: iteration list must be ascending";
  List.iter
    (fun n ->
      if n < 0 then
        invalid_arg "Solver.iterate_snapshots: negative iteration count")
    at;
  let workload = Workload.create model ~service_rate in
  let norm =
    Model.mean_rate model *. model.Model.interarrival.Lrd_dist.Interarrival.mean
  in
  let ws = Workspace.make workload ~buffer ~m:bins in
  let current = ref 0 in
  List.map
    (fun n ->
      while !current < n do
        Workspace.step ws;
        incr current
      done;
      let lower_loss, upper_loss = Workspace.losses ws ~norm in
      {
        iteration = n;
        lower_pmf = Workspace.lower_pmf ws;
        upper_pmf = Workspace.upper_pmf ws;
        lower_loss;
        upper_loss;
      })
    sorted
