(** Snapshot export: a streaming JSONL metrics ticker.

    A background systhread appending one timestamped snapshot line (a
    [ts] epoch-seconds key plus the native [metrics] array, one object
    per line) to a JSONL file every [interval] seconds.  A tick is also
    written synchronously at start and at stop, so runs shorter than one
    interval still produce a series.  At most one ticker runs per
    process; starting a new one stops the old one first.  The ticker is
    a thread of the starting domain, not a domain of its own: a second
    domain, even asleep, would put every minor collection on the
    stop-the-world path of a multi-domain program. *)

val start_ticker : interval:float -> path:string -> (unit, string) result
(** Errors on a non-positive interval or an unwritable [path]. *)

val stop_ticker : unit -> unit
(** Write a final tick, stop the background thread and close the file.
    No-op when no ticker is running. *)
