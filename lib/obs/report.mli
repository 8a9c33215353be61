(** Offline analyzer for Chrome-trace journals written by
    {!Obs.Trace.to_chrome_json} (CLI/bench [--trace] output).

    All analysis is a pure function of the journal: the same file always
    produces byte-identical {!to_json} output, so reports can be diffed
    across reruns and archived as CI artifacts. *)

type phase_stats = {
  phase_name : string;
  count : int;
  total : float;  (** summed duration, seconds *)
  p50 : float;
  p95 : float;
  max : float;
}

type domain_util = {
  domain : int;  (** trace [tid] *)
  busy : float;  (** union of span-covered time, seconds *)
  idle : float;  (** journal extent minus busy *)
  utilization : float;  (** busy / extent, 0 when the journal is empty *)
}

type pool_stats = { tasks : int  (** [pool/task] begin events *) }

type cell = {
  index : int;  (** flat sweep index [iy * nx + ix] *)
  slices : int;  (** number of [sweep/slice] spans *)
  seconds : float;  (** summed slice duration *)
}

type critical_path = {
  path : int list;  (** cell indices, dependency order *)
  path_seconds : float;
}

type t = {
  events : int;  (** non-metadata journal events *)
  dropped_unmatched : int;  (** slice halves lost to ring eviction *)
  extent : float;  (** last minus first timestamp, seconds *)
  phases : phase_stats list;  (** sorted by name *)
  domains : domain_util list;  (** sorted by domain id *)
  pool : pool_stats;
  cells : cell list;  (** slowest first *)
  critical : critical_path option;
      (** longest dependent chain of cells, linking cell [i] to [i - 1]
          through [sweep/warm_start] edges; [None] without sweep data *)
}

val schema : string
(** ["lrd-trace-report/1"] — the [schema] field of {!to_json}. *)

val of_file : string -> (t, string) result
(** Load and analyze a Chrome-trace journal; errors name the file. *)

val of_chrome_json : Json.t -> (t, string) result
(** Analyze an already-parsed journal (top-level event array). *)

val to_json : ?top:int -> t -> Json.t
(** Deterministic report document ([schema] {!schema}); [top] bounds the
    [slowest_cells] list (default 10). *)

val render : ?top:int -> t -> string
(** Human-readable multi-section text summary. *)

val render_compare : base:t -> current:t -> string
(** A/B table of per-phase totals plus headline aggregates. *)
