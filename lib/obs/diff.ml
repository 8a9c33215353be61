type status =
  | Unchanged
  | Improved
  | Changed
  | Regressed
  | Missing_current
  | Missing_base

type row = {
  name : string;
  base : float option;
  current : float option;
  status : status;
}

type report = {
  rows : row list;
  regressions : int;
  missing : int;
  additions : int;
}

(* ------------------------------------------------------------------ *)
(* Scalar extraction *)

let metrics_scalars entries =
  let out = ref [] in
  let push name v = out := (name, v) :: !out in
  List.iter
    (fun e ->
      match (Json.member "name" e, Json.member "kind" e) with
      | Some (Str name), Some (Str kind) -> (
          let num key =
            Option.bind (Json.member key e) Json.to_float_opt
          in
          match kind with
          | "counter" -> Option.iter (push name) (num "total")
          | "gauge" -> Option.iter (push name) (num "value")
          | "histogram" ->
              Option.iter (push name) (num "count");
              Option.iter
                (fun s -> if s <> 0.0 then push (name ^ "/sum") s)
                (num "sum")
          | _ -> ())
      | _ -> ())
    entries;
  List.rev !out

let bench_scalars entries =
  List.filter_map
    (fun e ->
      match (Json.member "name" e, Json.member "ns_per_run" e) with
      | Some (Str name), Some v ->
          Option.map (fun f -> (name, f)) (Json.to_float_opt v)
      | _ -> None)
    entries

let rec scalars (v : Json.t) =
  match v with
  | Obj _ when Json.member "metrics" v <> None && Json.member "schema" v <> None
    -> (
      (* A manifest: check the tag, then diff the embedded snapshot. *)
      match Json.member "schema" v with
      | Some (Str s) when s = Manifest.schema -> (
          match Json.member "metrics" v with
          | Some Null | None -> Ok []
          | Some m -> scalars m)
      | Some (Str s) -> Error (Printf.sprintf "unknown manifest schema %S" s)
      | _ -> Error "manifest schema tag is not a string")
  | Obj _ -> (
      match Json.member "metrics" v with
      | Some (List entries) -> Ok (metrics_scalars entries)
      | _ -> Error "not a metrics snapshot (no \"metrics\" array)")
  | List entries -> Ok (bench_scalars entries)
  | _ -> Error "not a recognized snapshot (expected an object or array)"

(* ------------------------------------------------------------------ *)

let classify ~exact ~threshold ~min_abs base current =
  match (base, current) with
  | None, Some _ -> Missing_base
  | Some _, None -> Missing_current
  | None, None -> Unchanged
  | Some b, Some c ->
      if c = b then Unchanged
      else if exact then
        (* Equivalence gating (e.g. a manifest against the snapshot it
           embeds): any numeric difference in either direction is a
           failure; one-sided names keep their warning semantics. *)
        Regressed
      else if c > b then
        if b > 0.0 && c > threshold *. b && c -. b >= min_abs then Regressed
        else Changed
      else if b > 0.0 && b > threshold *. c && b -. c >= min_abs then Improved
      else Changed

let contains ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  lsub = 0 || go 0

let compare_values ?(threshold = 2.0) ?(min_abs = 0.0) ?filter
    ?(exact = false) base current =
  match (scalars base, scalars current) with
  | Error e, _ -> Error ("base: " ^ e)
  | _, Error e -> Error ("current: " ^ e)
  | Ok bs, Ok cs ->
      let keep (name, _) =
        match filter with None -> true | Some f -> contains ~sub:f name
      in
      let bs = List.filter keep bs and cs = List.filter keep cs in
      let names =
        List.sort_uniq String.compare (List.map fst bs @ List.map fst cs)
      in
      let rows =
        List.map
          (fun name ->
            let base = List.assoc_opt name bs
            and current = List.assoc_opt name cs in
            {
              name;
              base;
              current;
              status = classify ~exact ~threshold ~min_abs base current;
            })
          names
      in
      let count st = List.length (List.filter (fun r -> r.status = st) rows) in
      Ok
        {
          rows;
          regressions = count Regressed;
          (* A name in the base only is a warning (a filtered run misses
             series); a name in the current only is an improvement — new
             coverage — and is counted separately, not as missing. *)
          missing = count Missing_current;
          additions = count Missing_base;
        }

let status_label = function
  | Unchanged -> "="
  | Improved -> "improved"
  | Changed -> "changed"
  | Regressed -> "REGRESSED"
  | Missing_current -> "missing in current"
  | Missing_base -> "missing in base"

let render report =
  let b = Buffer.create 1024 in
  let fmt_v = function
    | None -> "-"
    | Some f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Printf.sprintf "%.0f" f
        else Printf.sprintf "%.6g" f
  in
  let shown =
    List.filter (fun r -> r.status <> Unchanged) report.rows
  in
  let name_w =
    List.fold_left (fun w r -> max w (String.length r.name)) 4 shown
  in
  if shown <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "%-*s  %14s  %14s  %8s  %s\n" name_w "name" "base"
         "current" "ratio" "status");
    List.iter
      (fun r ->
        let ratio =
          match (r.base, r.current) with
          | Some bv, Some c when bv > 0.0 -> Printf.sprintf "%.2fx" (c /. bv)
          | _ -> "-"
        in
        Buffer.add_string b
          (Printf.sprintf "%-*s  %14s  %14s  %8s  %s\n" name_w r.name
             (fmt_v r.base) (fmt_v r.current) ratio (status_label r.status)))
      shown
  end;
  let total = List.length report.rows in
  Buffer.add_string b
    (Printf.sprintf
       "%d series compared: %d unchanged, %d regressed, %d new in current, \
        %d missing in current\n"
       total
       (total - List.length shown)
       report.regressions report.additions report.missing);
  Buffer.contents b

(* What a value looks like, for exit-2 diagnostics: names the shape we
   detected so "base: malformed" becomes actionable. *)
let describe (v : Json.t) =
  match v with
  | Obj _ when Json.member "schema" v <> None -> (
      match Json.member "schema" v with
      | Some (Str s) -> Printf.sprintf "manifest with schema %S" s
      | _ -> "manifest-like object with a non-string schema tag")
  | Obj _ when Json.member "metrics" v <> None ->
      "object with a non-array \"metrics\" key"
  | Obj _ -> "JSON object (not a metrics snapshot or manifest)"
  | List _ -> "JSON array (not a bench result array)"
  | Null -> "JSON null"
  | Bool _ -> "JSON boolean"
  | Num _ -> "JSON number"
  | Str _ -> "JSON string"

let run ?threshold ?min_abs ?filter ?exact ~base ~current () =
  let load label path =
    match Json.of_file path with
    | Error e -> Error (Printf.sprintf "%s (%s): %s" label path e)
    | Ok v -> (
        (* Pre-validate each side so a format error names the offending
           file and the shape we saw, not just "base: malformed". *)
        match scalars v with
        | Ok _ -> Ok v
        | Error e ->
            Error
              (Printf.sprintf "%s (%s): %s — input is %s" label path e
                 (describe v)))
  in
  match (load "base" base, load "current" current) with
  | Error e, _ | _, Error e ->
      prerr_endline ("lrd metrics diff: " ^ e);
      2
  | Ok b, Ok c -> (
      match compare_values ?threshold ?min_abs ?filter ?exact b c with
      | Error e ->
          prerr_endline ("lrd metrics diff: " ^ e);
          2
      | Ok report ->
          print_string (render report);
          if report.regressions > 0 then 3 else 0)
