let int n = Json.Num (float_of_int n)

(* Microseconds rounded to nanoseconds. *)
let us x = Json.Num (Float.round (x *. 1000.) /. 1000.)

let args attrs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs)
let head name ph = [ ("name", Json.Str name); ("ph", Json.Str ph) ]
let at track ts_us = [ ("pid", int 1); ("tid", int track); ("ts", us ts_us) ]

let event_json ev =
  match (ev : Trace.event) with
  | Trace.Span { name; track; ts_us; dur_us; attrs } ->
    Json.Obj
      (head name "X" @ at track ts_us @ [ ("dur", us dur_us); ("args", args attrs) ])
  | Trace.Instant { name; track; ts_us; attrs } ->
    Json.Obj
      (head name "i" @ [ ("s", Json.Str "t") ] @ at track ts_us
      @ [ ("args", args attrs) ])
  | Trace.Flow { name; track; ts_us; id; dir; attrs } ->
    let ph =
      match dir with
      | Trace.Flow_start -> "s"
      | Trace.Flow_step -> "t"
      | Trace.Flow_end -> "f"
    in
    (* bp:e binds the step/end point to its enclosing slice, which is how
       Perfetto attaches the arrow to the span the point was emitted in. *)
    let bp = match dir with Trace.Flow_start -> [] | _ -> [ ("bp", Json.Str "e") ] in
    Json.Obj
      (head name ph @ (("cat", Json.Str "flow") :: ("id", int id) :: bp)
      @ at track ts_us
      @ [ ("args", args attrs) ])

let to_string events =
  (* Name the process and each track; track 0 is the calling domain. *)
  let meta name tid label =
    Json.Obj
      (head name "M"
      @ [ ("pid", int 1); ("tid", int tid); ("args", args [ ("name", label) ]) ])
  and tracks = List.sort_uniq compare (List.map Trace.event_track events) in
  let names =
    meta "process_name" 0 "hidet"
    :: List.map
         (fun t ->
           meta "thread_name" t
             (if t = 0 then "domain 0 (main)" else Printf.sprintf "domain %d (worker)" t))
         tracks
  in
  Json.to_string
    (Json.Obj
       [
         ("displayTimeUnit", Json.Str "ms");
         ("traceEvents", Json.Arr (names @ List.map event_json events));
       ])

let save path events =
  Atomic_file.write path (fun oc -> output_string oc (to_string events))

(* --- validation --------------------------------------------------------------- *)

let check text =
  match Json.parse text with
  | Error msg -> Error (Printf.sprintf "not valid JSON (%s)" msg)
  | Ok json -> (
    match Option.bind (Json.member "traceEvents" json) Json.to_arr with
    | None -> Error "no traceEvents array"
    | Some events ->
      let count = ref 0 in
      let rec go = function
        | [] -> Ok !count
        | ev :: rest -> (
          let num field = Option.bind (Json.member field ev) Json.to_num in
          match Option.bind (Json.member "ph" ev) Json.to_str with
          | None -> Error "event without \"ph\""
          | Some "M" -> go rest
          | Some ph -> (
            match Option.bind (Json.member "name" ev) Json.to_str with
            | None -> Error "event without a string name"
            | Some name -> (
              let bad msg = Error (Printf.sprintf "event %S: %s" name msg) in
              match (ph, num "ts", num "dur") with
              | "X", Some ts, Some dur when ts >= 0. && dur >= 0. ->
                Stdlib.incr count;
                go rest
              | "X", Some _, Some _ -> bad "negative ts or dur"
              | "X", _, _ -> bad "missing numeric ts/dur"
              | "i", Some ts, _ when ts >= 0. ->
                Stdlib.incr count;
                go rest
              | "i", _, _ -> bad "missing or negative ts"
              | ("s" | "t" | "f"), Some ts, _ when ts >= 0. -> (
                match num "id" with
                | Some _ ->
                  Stdlib.incr count;
                  go rest
                | None -> bad "flow event without numeric id")
              | ("s" | "t" | "f"), _, _ -> bad "missing or negative ts"
              | ph, _, _ -> bad (Printf.sprintf "unknown phase %S" ph))))
      in
      go events)

let check_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    check text
