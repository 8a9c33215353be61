(* Whole-grid caches for the batch builders behind {!discretize} and
   {!overflow_table}.  A refinement level's grid contains its parent's
   points bitwise (the step [buffer /. m] scales by exact powers of two),
   so the finest grid computed so far answers any coarser level by
   striding and seeds half of the next doubling.  A memo belongs to one
   solve ({!with_memo}) and only the solve's caller reads or writes it:
   the crew domain that computes half of a fresh grid (see
   {!fill_survival}) writes only that grid's array elements, before the
   caller stores the grid in the memo, so the memo needs no lock.
   Quantization is construction-time only, never part of the solver's
   iteration hot loop. *)
type memo = {
  mutable grid_buffer : float;
  mutable grid_m : int;  (* 0 = empty *)
  mutable grid_ge : float array;  (* length 2 grid_m + 1 *)
  mutable grid_gt : float array;
  mutable ov_buffer : float;
  mutable ov_m : int;  (* 0 = empty *)
  mutable ov : float array;  (* length ov_m + 1 *)
}

type t = {
  service_rate : float;
  rates : float array;
  probs : float array;
  law : Lrd_dist.Interarrival.t;
  mean_rate : float;
  memo : memo option;
}

let with_memo t =
  {
    t with
    memo =
      Some
        {
          grid_buffer = nan;
          grid_m = 0;
          grid_ge = [||];
          grid_gt = [||];
          ov_buffer = nan;
          ov_m = 0;
          ov = [||];
        };
  }

let create ?(memoize = false) model ~service_rate =
  if not (service_rate > 0.0) then
    invalid_arg "Workload.create: service rate must be positive";
  let t =
    {
      service_rate;
      rates = Lrd_dist.Marginal.rates model.Model.marginal;
      probs = Lrd_dist.Marginal.probs model.Model.marginal;
      law = model.Model.interarrival;
      mean_rate = Model.mean_rate model;
      memo = None;
    }
  in
  if memoize then with_memo t else t

(* ------------------------------------------------------------------ *)
(* Batch kernels.

   Points are evaluated in blocks of at most [block]: each marginal atom
   runs over the whole block (atoms outside, points inside), through the
   law's batch kernel, and each point's Neumaier sum lives in float
   arrays.  Every point still adds its atoms in marginal order with the
   same operations as {!Lrd_numerics.Summation}, so a value does not
   depend on the block it was computed in; the scalar API runs the same
   kernels on one point.  A grid's fresh points are dealt between two
   parts that may run on two domains (see {!owns}); each part works in
   its own domain's fixed-size scratch ({!local_scratch}), so quantizing
   a grid allocates nothing per point or atom, and none at all on a
   domain that has quantized before.  At 256 points each scratch array
   fits the minor heap (Max_young_wosize). *)

let block = 256

type scratch = {
  idx : int array;  (* grid index of each slot *)
  x : float array;  (* evaluation point of each slot *)
  q : float array;  (* [x / delta] for the current atom *)
  va : float array;  (* law values at [q] *)
  vb : float array;
  sa : float array;  (* Neumaier sum and compensation, first result *)
  ca : float array;
  sb : float array;  (* second result *)
  cb : float array;
}

let scratch n =
  let f () = Array.make n 0.0 in
  {
    idx = Array.make n 0;
    x = f ();
    q = f ();
    va = f ();
    vb = f ();
    sa = f ();
    ca = f ();
    sb = f ();
    cb = f ();
  }

(* {!Lrd_numerics.Summation.add} on slot [j]. *)
let[@inline] add sum comp j x =
  let s = sum.(j) in
  let t = s +. x in
  if Float.abs s >= Float.abs x then comp.(j) <- comp.(j) +. (s -. t +. x)
  else comp.(j) <- comp.(j) +. (x -. t +. s);
  sum.(j) <- t

(* [Float.max 0.0 (Float.min 1.0 v)], written out so that it inlines. *)
let[@inline] clamp01 v =
  if v > 1.0 then 1.0 else if v > 0.0 then v else if v = v then 0.0 else v

(* Pr{W >= x} into [s.sa] and Pr{W > x} into [s.sb] for the [n] points
   [s.x], by conditioning on the rate.  For a rate above the service
   rate the increment is positive and increasing in T; below, it is
   negative and decreasing in T, so the strict/weak survival functions
   of T swap roles; a rate exactly equal to c pins the increment at
   zero. *)
let survival_block t s n =
  Array.fill s.sa 0 n 0.0;
  Array.fill s.ca 0 n 0.0;
  Array.fill s.sb 0 n 0.0;
  Array.fill s.cb 0 n 0.0;
  for i = 0 to Array.length t.probs - 1 do
    let p = t.probs.(i) in
    let delta = t.rates.(i) -. t.service_rate in
    if delta > 0.0 || delta < 0.0 then begin
      for j = 0 to n - 1 do
        s.q.(j) <- s.x.(j) /. delta
      done;
      t.law.Lrd_dist.Interarrival.survival_grid ~n s.q ~ge:s.va ~gt:s.vb;
      if delta > 0.0 then
        for j = 0 to n - 1 do
          add s.sa s.ca j (p *. s.va.(j));
          add s.sb s.cb j (p *. s.vb.(j))
        done
      else
        (* W = T delta <= 0: Pr{W >= x} = Pr{T <= x / delta}. *)
        for j = 0 to n - 1 do
          add s.sa s.ca j (p *. (1.0 -. s.vb.(j)));
          add s.sb s.cb j (p *. (1.0 -. s.va.(j)))
        done
    end
    else
      for j = 0 to n - 1 do
        let x = s.x.(j) in
        add s.sa s.ca j (p *. if x <= 0.0 then 1.0 else 0.0);
        add s.sb s.cb j (p *. if x < 0.0 then 1.0 else 0.0)
      done
  done;
  for j = 0 to n - 1 do
    s.sa.(j) <- clamp01 (s.sa.(j) +. s.ca.(j));
    s.sb.(j) <- clamp01 (s.sb.(j) +. s.cb.(j))
  done

(* E[(W - y)^+] into [s.sa] for the [n] headrooms [y = s.x]:
   E[(T delta - y)^+] = delta int_{y/delta}^inf Pr{T > t} dt, summed over
   the rates above the service rate. *)
let overflow_block t s n =
  Array.fill s.sa 0 n 0.0;
  Array.fill s.ca 0 n 0.0;
  for i = 0 to Array.length t.probs - 1 do
    let delta = t.rates.(i) -. t.service_rate in
    if delta > 0.0 then begin
      let w = t.probs.(i) *. delta in
      for j = 0 to n - 1 do
        s.q.(j) <- s.x.(j) /. delta
      done;
      t.law.Lrd_dist.Interarrival.survival_integral_grid ~n s.q s.va;
      for j = 0 to n - 1 do
        add s.sa s.ca j (w *. s.va.(j))
      done
    end
  done;
  for j = 0 to n - 1 do
    s.sa.(j) <- s.sa.(j) +. s.ca.(j)
  done

(* Points are dealt between two parts: of the indices [0 .. len - 1]
   that are not multiples of [skip] (all of them when [skip = 0]), the
   fresh points, part 0 owns the even-numbered and part 1 the odd-numbered
   ones.  Alternating rather than halving the range balances the parts:
   below the service rate every atom of a point x < 0 pays a [pow], so
   the lower half of a grid costs more than the upper one. *)
let owns ~skip ~part k =
  if skip = 0 then k land 1 = part
  else
    (* k - ceil (k / skip) fresh indices lie below a fresh [k]. *)
    k mod skip <> 0 && (k - ((k + skip - 1) / skip)) land 1 = part

(* Gathers into [s.idx.(n ..)] the next indices from [k] on that [part]
   owns, until the block is full; returns how many slots are filled. *)
let rec gather s ~len ~skip ~part k n =
  if n = Array.length s.idx || k >= len then n
  else if owns ~skip ~part k then begin
    s.idx.(n) <- k;
    gather s ~len ~skip ~part (k + 1) (n + 1)
  end
  else gather s ~len ~skip ~part (k + 1) n

(* The calling domain's block scratch: each part runs in its own
   domain's, so a part allocates nothing once its domain has quantized
   before. *)
let local_scratch : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> scratch block)

(* [ge.(k)] = Pr{W >= (k - m) d} and [gt.(k)] = Pr{W > (k - m) d} for
   the indices from [k] on that [part] owns (see {!owns}). *)
let rec survival_part t s ~m ~d ~skip ~part ge gt k =
  let n = gather s ~len:(Array.length ge) ~skip ~part k 0 in
  if n > 0 then begin
    for j = 0 to n - 1 do
      s.x.(j) <- float_of_int (s.idx.(j) - m) *. d
    done;
    survival_block t s n;
    for j = 0 to n - 1 do
      ge.(s.idx.(j)) <- s.sa.(j);
      gt.(s.idx.(j)) <- s.sb.(j)
    done;
    survival_part t s ~m ~d ~skip ~part ge gt (s.idx.(n - 1) + 1)
  end

(* [a.(j)] = the expected overflow from occupancy [min buffer (j step)]
   for the indices from [k] on that [part] owns. *)
let rec overflow_part t s ~buffer ~step ~skip ~part a k =
  let n = gather s ~len:(Array.length a) ~skip ~part k 0 in
  if n > 0 then begin
    for j = 0 to n - 1 do
      let occupancy = Float.min buffer (float_of_int s.idx.(j) *. step) in
      s.x.(j) <- Float.max 0.0 (buffer -. occupancy)
    done;
    overflow_block t s n;
    for j = 0 to n - 1 do
      a.(s.idx.(j)) <- s.sa.(j)
    done;
    overflow_part t s ~buffer ~step ~skip ~part a (s.idx.(n - 1) + 1)
  end

(* The fills run part 0 on the caller and part 1 on the chain pair's
   crew domain ({!Lrd_parallel.Pool.both}), which writes disjoint
   elements of the same arrays; inside a pool task both parts run in
   turn on the caller.  A point's value does not depend on its block or
   its part, so the arrays are the same bits either way. *)
let fill_survival t ~m ~d ~skip ge gt =
  let part p () =
    survival_part t (Domain.DLS.get local_scratch) ~m ~d ~skip ~part:p ge gt 0
  in
  Lrd_parallel.Pool.both (part 0) (part 1)

let fill_overflow t ~buffer ~step ~skip a =
  let part p () =
    overflow_part t (Domain.DLS.get local_scratch) ~buffer ~step ~skip ~part:p
      a 0
  in
  Lrd_parallel.Pool.both (part 0) (part 1)

let survival_at t x =
  let s = scratch 1 in
  s.x.(0) <- x;
  survival_block t s 1;
  s

let survival_ge t x = (survival_at t x).sa.(0)
let survival_gt t x = (survival_at t x).sb.(0)

let max_increment t =
  let max_delta =
    Array.fold_left
      (fun acc r -> Float.max acc (r -. t.service_rate))
      neg_infinity t.rates
  in
  if max_delta <= 0.0 then 0.0
  else
    match t.law.Lrd_dist.Interarrival.max_support with
    | None -> Float.infinity
    | Some sup -> sup *. max_delta

let expected_overflow t ~buffer ~occupancy =
  if not (buffer >= 0.0) then
    invalid_arg "Workload.expected_overflow: negative buffer";
  if not (occupancy >= 0.0 && occupancy <= buffer +. 1e-9) then
    invalid_arg "Workload.expected_overflow: occupancy outside [0, buffer]";
  let s = scratch 1 in
  s.x.(0) <- Float.max 0.0 (buffer -. occupancy);
  overflow_block t s 1;
  s.sa.(0)

(* ------------------------------------------------------------------ *)
(* Grid builders with the level caches. *)

let m_grid_fresh = Lrd_obs.Obs.Counter.make "workload_grid/points_fresh"
let m_grid_reused = Lrd_obs.Obs.Counter.make "workload_grid/points_reused"
let is_pow2 r = r > 0 && r land (r - 1) = 0

(* Survival grids [Pr{W >= i d}], [Pr{W > i d}] for [i = -m .. m] with
   [d = buffer / m], the construction-time bulk of {!discretize}.  The
   memo keeps the finest grid computed for the current buffer: a coarser
   grid is a bitwise stride of a finer one and a doubling reuses every
   cached point, so a refinement chain pays for each point once.
   Returned arrays are cache-owned when a memo is attached; callers only
   read them. *)
let survival_grid t ~buffer ~m =
  let d = buffer /. float_of_int m in
  let len = (2 * m) + 1 in
  match t.memo with
  | None ->
      let ge = Array.make len 0.0 and gt = Array.make len 0.0 in
      fill_survival t ~m ~d ~skip:0 ge gt;
      (ge, gt)
  | Some memo ->
      let gm = memo.grid_m in
      let same_buffer = gm > 0 && memo.grid_buffer = buffer in
      if same_buffer && gm = m then (
        Lrd_obs.Obs.Counter.add m_grid_reused len;
        (memo.grid_ge, memo.grid_gt))
      else if same_buffer && gm mod m = 0 && is_pow2 (gm / m) then (
        (* The cached finer grid contains this level as a stride. *)
        let r = gm / m in
        let ge = Array.make len 0.0 and gt = Array.make len 0.0 in
        for i = -m to m do
          ge.(i + m) <- memo.grid_ge.((r * i) + gm);
          gt.(i + m) <- memo.grid_gt.((r * i) + gm)
        done;
        Lrd_obs.Obs.Counter.add m_grid_reused len;
        (ge, gt))
      else
        let ge = Array.make len 0.0 and gt = Array.make len 0.0 in
        let fresh = ref len in
        (if same_buffer && m mod gm = 0 && is_pow2 (m / gm) then (
           (* Doubling (or further refining): cached coarse points
              land on every [r]-th index of this grid bitwise. *)
           let r = m / gm in
           for i = -gm to gm do
             ge.((r * i) + m) <- memo.grid_ge.(i + gm);
             gt.((r * i) + m) <- memo.grid_gt.(i + gm)
           done;
           fresh := len - ((2 * gm) + 1);
           fill_survival t ~m ~d ~skip:r ge gt)
         else fill_survival t ~m ~d ~skip:0 ge gt);
        Lrd_obs.Obs.Counter.add m_grid_fresh !fresh;
        Lrd_obs.Obs.Counter.add m_grid_reused (len - !fresh);
        memo.grid_buffer <- buffer;
        memo.grid_m <- m;
        memo.grid_ge <- ge;
        memo.grid_gt <- gt;
        (ge, gt)

let overflow_table t ~buffer ~bins =
  if not (buffer > 0.0) then
    invalid_arg "Workload.overflow_table: buffer must be positive";
  if bins <= 0 then
    invalid_arg "Workload.overflow_table: bins must be positive";
  let m = bins in
  let step = buffer /. float_of_int m in
  let len = m + 1 in
  match t.memo with
  | None ->
      let a = Array.make len 0.0 in
      fill_overflow t ~buffer ~step ~skip:0 a;
      a
  | Some memo ->
      let om = memo.ov_m in
      let same_buffer = om > 0 && memo.ov_buffer = buffer in
      if same_buffer && om = m then (
        Lrd_obs.Obs.Counter.add m_grid_reused len;
        memo.ov)
      else if same_buffer && om mod m = 0 && is_pow2 (om / m) then (
        let r = om / m in
        Lrd_obs.Obs.Counter.add m_grid_reused len;
        Array.init len (fun j -> memo.ov.(r * j)))
      else
        let a = Array.make len 0.0 in
        let fresh = ref len in
        (if same_buffer && m mod om = 0 && is_pow2 (m / om) then (
           let r = m / om in
           for j = 0 to om do
             a.(r * j) <- memo.ov.(j)
           done;
           fresh := len - (om + 1);
           fill_overflow t ~buffer ~step ~skip:r a)
         else fill_overflow t ~buffer ~step ~skip:0 a);
        Lrd_obs.Obs.Counter.add m_grid_fresh !fresh;
        Lrd_obs.Obs.Counter.add m_grid_reused (len - !fresh);
        memo.ov_buffer <- buffer;
        memo.ov_m <- m;
        memo.ov <- a;
        a

let zero_buffer_loss t =
  let acc = Lrd_numerics.Summation.create () in
  Array.iteri
    (fun i p ->
      let delta = t.rates.(i) -. t.service_rate in
      if delta > 0.0 then Lrd_numerics.Summation.add acc (p *. delta))
    t.probs;
  Lrd_numerics.Summation.total acc /. t.mean_rate

type bins = {
  lower : float array;
  upper : float array;
  half_width : int;
  step : float;
}

let discretize t ~buffer ~bins =
  if not (buffer > 0.0) then
    invalid_arg "Workload.discretize: buffer must be positive";
  if bins <= 0 then invalid_arg "Workload.discretize: bins must be positive";
  let m = bins in
  let d = buffer /. float_of_int m in
  let lower = Array.make ((2 * m) + 1) 0.0 in
  let upper = Array.make ((2 * m) + 1) 0.0 in
  (* Precompute the survival functions on the grid once (batch kernels,
     level-cached; see {!survival_grid}); each bin mass is a difference
     of adjacent values (eqs. 21-22). *)
  let ge, gt = survival_grid t ~buffer ~m in
  for k = 0 to 2 * m do
    let i = k - m in
    (* Floor chain, eq. 21. *)
    lower.(k) <-
      (if i = -m then 1.0 -. ge.(k + 1)
       else if i = m then ge.(k)
       else ge.(k) -. ge.(k + 1));
    (* Ceiling chain, eq. 22. *)
    upper.(k) <-
      (if i = -m then 1.0 -. gt.(k)
       else if i = m then gt.(k - 1)
       else gt.(k - 1) -. gt.(k))
  done;
  (* Guard against rounding producing tiny negatives. *)
  for k = 0 to 2 * m do
    if lower.(k) < 0.0 then lower.(k) <- 0.0;
    if upper.(k) < 0.0 then upper.(k) <- 0.0
  done;
  { lower; upper; half_width = m; step = d }

(* ------------------------------------------------------------------ *)
(* Cross-cell cache.

   A sweep surface re-derives the same model and workload for every cell
   of a column that varies only the buffer size (fig. 4/5: one model per
   cutoff across seven buffers; fig. 12/13: one scaled marginal per
   scaling factor).  The cache shares one workload per caller-supplied
   key and counts lookups/hits so tests can assert the
   sharing actually happens.  The shared workload carries no grid memo:
   each solve attaches its own ({!with_memo}), so two cells of one
   column quantizing on two domains neither wait on each other nor
   evict each other's grids.  Models and interarrival laws contain
   closures, so identity must come from the caller: the key must be
   injective over the models the sweep builds (e.g. the hex-printed
   column coordinate). *)

let make_workload = create

module Cache = struct
  type workload = t

  (* Cache traffic also feeds the telemetry layer: the counters
     aggregate over every cache instance, while the hit-rate gauge
     reflects the instance that looked up last (one cache per figure
     sweep, so "the active sweep's hit rate"). *)
  let m_lookups = Lrd_obs.Obs.Counter.make "workload_cache/lookups"
  let m_hits = Lrd_obs.Obs.Counter.make "workload_cache/hits"
  let m_misses = Lrd_obs.Obs.Counter.make "workload_cache/misses"
  let m_hit_rate = Lrd_obs.Obs.Gauge.make "workload_cache/hit_rate"

  type t = {
    lock : Mutex.t;
    models : (string, Model.t) Hashtbl.t;
    workloads : (string * float, workload) Hashtbl.t;
    mutable lookups : int;
    mutable hits : int;
  }

  let create () =
    {
      lock = Mutex.create ();
      models = Hashtbl.create 32;
      workloads = Hashtbl.create 32;
      lookups = 0;
      hits = 0;
    }

  (* Building under the cache lock serializes construction of distinct
     keys, which is fine: construction is a tiny fraction of the solve
     it precedes, and the alternative is duplicated work on a race. *)
  let find_or_build c tbl key build =
    Mutex.lock c.lock;
    c.lookups <- c.lookups + 1;
    Lrd_obs.Obs.Counter.incr m_lookups;
    let update_hit_rate () =
      if Lrd_obs.Obs.enabled () then
        Lrd_obs.Obs.Gauge.set m_hit_rate
          (float_of_int c.hits /. float_of_int c.lookups)
    in
    match Hashtbl.find_opt tbl key with
    | Some v ->
        c.hits <- c.hits + 1;
        Lrd_obs.Obs.Counter.incr m_hits;
        update_hit_rate ();
        Mutex.unlock c.lock;
        v
    | None -> (
        Lrd_obs.Obs.Counter.incr m_misses;
        update_hit_rate ();
        match build () with
        | v ->
            Hashtbl.add tbl key v;
            Mutex.unlock c.lock;
            v
        | exception e ->
            Mutex.unlock c.lock;
            raise e)

  let model c ~key build = find_or_build c c.models key build

  let workload c ~key m ~service_rate =
    find_or_build c c.workloads (key, service_rate) (fun () ->
        make_workload m ~service_rate)

  let lookups c =
    Mutex.lock c.lock;
    let v = c.lookups in
    Mutex.unlock c.lock;
    v

  let hits c =
    Mutex.lock c.lock;
    let v = c.hits in
    Mutex.unlock c.lock;
    v

  let entries c =
    Mutex.lock c.lock;
    let v = Hashtbl.length c.models + Hashtbl.length c.workloads in
    Mutex.unlock c.lock;
    v
end
