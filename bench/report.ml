(* An experiment and [drive], which runs it.

   [run] returns the experiment's report; [drive] prints it and writes it
   as BENCH_<name>.json, so each number is formatted once, from the
   report. [gates] judge the report alone, so a committed report can be
   gated again without re-running the experiment. *)

module Json = Hidet_obs.Json

type t = {
  name : string;
  title : string;
  run : quick:bool -> Json.t;
  gates : Json.t -> (string * bool) list;
}

let failing e report =
  List.filter_map (fun (msg, ok) -> if ok then None else Some msg) (e.gates report)

(* ------------------------------------------------------------------ *)
(* The console view of a report                                       *)
(* ------------------------------------------------------------------ *)

let cell = function
  | Json.Null -> "-"
  | Json.Bool b -> string_of_bool b
  | Json.Str s -> s
  | Json.Num x when Float.is_integer x && Float.abs x < 1e15 -> Printf.sprintf "%.0f" x
  | Json.Num x -> Printf.sprintf "%.4g" x
  | Json.Arr _ | Json.Obj _ -> "..."

let is_scalar = function Json.Arr _ | Json.Obj _ -> false | _ -> true

(* Scalar leaves under [path]: nested object keys extend the path, an
   array of scalars is one comma-joined leaf, and an array of objects is
   left to the JSON file. *)
let rec leaves path = function
  | Json.Obj fields -> List.concat_map (fun (k, v) -> leaves (path @ [ k ]) v) fields
  | Json.Arr l when not (List.for_all is_scalar l) -> []
  | Json.Arr l -> [ (path, String.concat "," (List.map cell l)) ]
  | v -> [ (path, cell v) ]

(* One column per leaf path of any row. A path's keys are stacked in the
   header, its last key on the bottom line, and a key shared with the
   column to the left is shown once. Columns that would run past
   [max_width] wrap into further blocks, each led by the first column. *)
let max_width = 120

let print_table rows =
  let rows = List.map (leaves []) rows in
  let paths =
    List.fold_left
      (fun acc row -> acc @ List.filter (fun p -> not (List.mem p acc)) (List.map fst row))
      [] rows
  in
  let depth = List.fold_left (fun d p -> max d (List.length p)) 0 paths in
  let header p = List.init (depth - List.length p) (fun _ -> "") @ p in
  let value row p = Option.value (List.assoc_opt p row) ~default:"" in
  let width p =
    List.fold_left (fun w s -> max w (String.length s)) 0
      (header p @ List.map (fun row -> value row p) rows)
  in
  let print_block cols =
    let line cells =
      print_endline
        (String.concat "  " (List.map2 (fun (_, w) s -> Printf.sprintf "%*s" w s) cols cells))
    in
    let upto i p = List.filteri (fun j _ -> j <= i) (header p) in
    for i = 0 to depth - 1 do
      line
        (List.mapi
           (fun j (p, _) ->
             let shared =
               j > 0 && i < depth - 1 && upto i p = upto i (fst (List.nth cols (j - 1)))
             in
             if shared then "" else List.nth (header p) i)
           cols)
    done;
    List.iter (fun row -> line (List.map (fun (p, _) -> value row p) cols)) rows
  in
  match List.map (fun p -> (p, width p)) paths with
  | [] -> ()
  | ((_, w0) as first) :: rest ->
    let blocks =
      List.fold_left
        (fun blocks ((_, w) as col) ->
          match blocks with
          | (used, cols) :: earlier when cols = [] || used + 2 + w <= max_width ->
            (used + 2 + w, cols @ [ col ]) :: earlier
          | _ -> (w0 + 2 + w, [ col ]) :: blocks)
        [ (w0, []) ] rest
    in
    List.iteri
      (fun i (_, cols) ->
        if i > 0 then print_newline ();
        print_block (first :: cols))
      (List.rev blocks)

(* Scalar fields (and nested objects) as "key: value" lines, each array
   of objects as a table; the experiment id is already in the heading. *)
let print report =
  match report with
  | Json.Obj fields ->
    List.iter
      (fun (k, v) ->
        match v with
        | _ when k = "experiment" -> ()
        | Json.Arr (Json.Obj _ :: _ as rows) ->
          Printf.printf "%s:\n" k;
          print_table rows
        | v ->
          List.iter
            (fun (path, s) -> Printf.printf "%s: %s\n" (String.concat "." path) s)
            (leaves [ k ] v))
      fields
  | v -> print_endline (cell v)

(* Prints the report, writes <out>/BENCH_<name>.json; [true] when every
   gate passes. *)
let drive ~out ~quick e =
  Printf.printf "\n=== %s: %s ===\n%!" e.name e.title;
  let report = e.run ~quick in
  print report;
  let path = Filename.concat out ("BENCH_" ^ e.name ^ ".json") in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string ~indent:2 report ^ "\n"));
  Printf.printf "wrote %s\n%!" path;
  let failed = failing e report in
  List.iter (fun msg -> Printf.eprintf "FAIL: %s: %s\n%!" e.name msg) failed;
  failed = []

(* Report accessors for the gates; a missing or mistyped field is a bug
   in the report, not a failed gate. *)
let get conv k j =
  match Option.bind (Json.member k j) conv with
  | Some v -> v
  | None -> failwith ("report: missing or mistyped field " ^ k)

let field = get Option.some
let num = get Json.to_num
let str = get Json.to_str
let list = get Json.to_arr
let bool = get (function Json.Bool b -> Some b | _ -> None)

let int n = Json.Num (float_of_int n)
