let schema = "lrd-manifest/1"

(* Read the subprocess's FULL output before closing: closing the pipe
   early can SIGPIPE a still-writing git (e.g. [status --porcelain] in
   a large dirty tree) and turn a good answer into a failure. *)
let command_output cmd =
  match Unix.open_process_in cmd with
  | ic -> (
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some (String.trim out)
      | _ -> None
      | exception _ -> None)
  | exception _ -> None

let git_rev_memo =
  lazy (command_output "git rev-parse HEAD 2>/dev/null")

let git_dirty_memo =
  lazy
    (match command_output "git status --porcelain 2>/dev/null" with
    | Some out -> Some (out <> "")
    | None -> None)

let git_rev () = Lazy.force git_rev_memo
let git_dirty () = Lazy.force git_dirty_memo

let make ?(figures = []) ?(parameters = []) ?wall_seconds ?metrics ~tool () =
  let opt_num = function Some f -> Json.Num f | None -> Json.Null in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("tool", Str tool);
      ("figures", List (List.map (fun f -> Json.Str f) figures));
      ("parameters", Obj parameters);
      ("ocaml_version", Str Sys.ocaml_version);
      ("os_type", Str Sys.os_type);
      ("word_size", Num (float_of_int Sys.word_size));
      ( "argv",
        List (Array.to_list (Array.map (fun a -> Json.Str a) Sys.argv)) );
      ("git_rev", match git_rev () with Some r -> Str r | None -> Null);
      ("git_dirty", match git_dirty () with Some d -> Bool d | None -> Null);
      ("metrics_enabled", Bool (Obs.enabled ()));
      ("generated_at_unix", Num (Unix.gettimeofday ()));
      ("wall_seconds", opt_num wall_seconds);
      ("metrics", Option.value metrics ~default:Json.Null);
    ]

let write path v = Json.to_file ~pretty:true path v
