(* Snapshot export beyond the native JSON: a periodic JSONL ticker that
   streams timestamped snapshots to a file while a run is in flight. *)

(* One line per tick: the native snapshot JSON flattened onto one line
   with a wall-clock "ts" key spliced in front of "metrics".  A tick is
   written synchronously at start and at stop, so even runs shorter
   than one interval leave a two-line series. *)

let tick_line () =
  let s = Obs.to_json (Obs.snapshot ()) in
  let flat = String.concat "" (String.split_on_char '\n' s) in
  (* flat is "{\"metrics\": [...]}" — splice ts after the brace. *)
  Printf.sprintf "{\"ts\": %.6f, %s\n" (Obs.now ())
    (String.sub flat 1 (String.length flat - 1))

let write_tick oc =
  Resource.sample ();
  output_string oc (tick_line ());
  flush oc

(* The worker is a systhread, not a Domain, on purpose: a second
   domain — even one asleep in [Unix.sleepf] — forces every minor
   collection onto the multi-domain stop-the-world path, which costs
   allocation-heavy runs tens of percent of wall clock on small hosts.
   A sleeping systhread shares the spawning domain and costs only its
   wakeups (a runtime-lock bounce every slice). *)
type ticker = {
  stop : bool Atomic.t;
  wake : Unix.file_descr;  (* write end of the worker's self-pipe *)
  sleep : Unix.file_descr;  (* read end, which the worker selects on *)
  worker : Thread.t;
  channel : out_channel;
}

let running : ticker option ref = ref None

let stop_ticker () =
  match !running with
  | None -> ()
  | Some t ->
      Atomic.set t.stop true;
      (* Wake the worker out of its select immediately.  The read end
         stays open until after the join: a worker that sees [stop]
         before its first select exits at once, and a write to a pipe
         with no reader would raise SIGPIPE. *)
      (try ignore (Unix.write t.wake (Bytes.make 1 '!') 0 1)
       with Unix.Unix_error _ -> ());
      Thread.join t.worker;
      (try Unix.close t.wake with Unix.Unix_error _ -> ());
      (try Unix.close t.sleep with Unix.Unix_error _ -> ());
      write_tick t.channel;
      close_out t.channel;
      running := None

let start_ticker ~interval ~path =
  if interval <= 0.0 || not (Float.is_finite interval) then
    Error (Printf.sprintf "invalid metrics interval %g (want > 0)" interval)
  else begin
    stop_ticker ();
    match open_out path with
    | exception Sys_error e -> Error e
    | oc ->
        write_tick oc;
        let stop = Atomic.make false in
        let rd, wr = Unix.pipe ~cloexec:true () in
        let worker =
          Thread.create
            (fun () ->
              (* One select per tick, blocking the whole interval: no
                 periodic wakeups stealing runtime-lock handoffs from
                 the measured code.  stop_ticker writes a byte to the
                 pipe, so shutdown is immediate regardless of how long
                 the interval is. *)
              let rec loop next =
                if not (Atomic.get stop) then begin
                  let timeout = Float.max 0.0 (next -. Obs.now ()) in
                  let ready, _, _ =
                    try Unix.select [ rd ] [] [] timeout
                    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
                  in
                  if ready = [] && not (Atomic.get stop) then begin
                    write_tick oc;
                    loop (next +. interval)
                  end
                end
              in
              loop (Obs.now () +. interval))
            ()
        in
        running := Some { stop; wake = wr; sleep = rd; worker; channel = oc };
        Ok ()
  end
