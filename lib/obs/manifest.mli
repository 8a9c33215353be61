(** Run provenance manifests.

    An experiment run (a [lrd experiment] invocation, a bench mode, a
    sweep) writes one [*.manifest.json] next to its outputs recording
    everything needed to re-run and diff it: which figures ran, the full
    parameter set (seed, RNG split scheme, jobs, solver parameters,
    grids), the code identity (git rev + dirty flag, OCaml version),
    wall time, and the final metrics snapshot.

    Determinism contract: two runs with the same seed and parameters
    produce byte-identical manifests {e except} for the two timestamp
    fields, [generated_at_unix] and [wall_seconds], which the pretty
    printer places on lines of their own so a diff can filter them
    (e.g. [grep -v -e generated_at_unix -e wall_seconds]).  The
    embedded metrics snapshot is part of the contract only when
    telemetry is disabled (its deterministic all-zero state) or the
    run's recording is itself deterministic. *)

val schema : string
(** ["lrd-manifest/1"] — bumped on any key change. *)

val make :
  ?figures:string list ->
  ?parameters:(string * Json.t) list ->
  ?wall_seconds:float ->
  ?metrics:Json.t ->
  tool:string ->
  unit ->
  Json.t
(** Compose a manifest object with a fixed key order: [schema], [tool],
    [figures], [parameters], [ocaml_version], [os_type], [word_size],
    [argv], [git_rev], [git_dirty], [metrics_enabled],
    [generated_at_unix], [wall_seconds], [metrics].  [git_rev] /
    [git_dirty] are [null] outside a git checkout. *)

val write : string -> Json.t -> unit
(** Pretty-print to a file. *)

val git_rev : unit -> string option
(** HEAD commit hash, memoized; [None] when git or the repo is
    unavailable. *)

val git_dirty : unit -> bool option
(** Whether the working tree has uncommitted changes, memoized. *)
