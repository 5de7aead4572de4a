(* A reported experiment and [drive], which runs it.

   [run] prints the experiment's table and returns its report; [gates]
   judge the report alone, so a committed BENCH_<name>.json can be gated
   again without re-running the experiment. *)

module Json = Hidet_obs.Json

type t = {
  name : string;
  run : quick:bool -> Json.t;
  gates : Json.t -> (string * bool) list;
}

let section title = Printf.printf "\n=== %s ===\n%!" title

let failing e report =
  List.filter_map (fun (msg, ok) -> if ok then None else Some msg) (e.gates report)

(* Writes <out>/BENCH_<name>.json; [true] when every gate passes. *)
let drive ~out ~quick e =
  let report = e.run ~quick in
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
