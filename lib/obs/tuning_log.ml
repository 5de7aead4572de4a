type outcome = Measured | Infeasible | Rejected | Pruned

type trial = {
  engine : string;
  workload : string;
  index : int;
  config : unit -> string;
  outcome : outcome;
  latency : float;
}

let outcome_to_string = function
  | Measured -> "measured"
  | Infeasible -> "infeasible"
  | Rejected -> "rejected"
  | Pruned -> "pruned"

type sink = { lock : Mutex.t; mutable entries : trial list }

let current : sink option Atomic.t = Atomic.make None
let enabled () = Atomic.get current <> None

let start () =
  Atomic.set current (Some { lock = Mutex.create (); entries = [] })

let record t =
  match Atomic.get current with
  | None -> ()
  | Some s ->
    Mutex.lock s.lock;
    s.entries <- t :: s.entries;
    Mutex.unlock s.lock

let snapshot s =
  Mutex.lock s.lock;
  let entries = s.entries in
  Mutex.unlock s.lock;
  List.rev entries

let stop () =
  match Atomic.get current with
  | None -> []
  | Some s ->
    Atomic.set current None;
    snapshot s

let sanitize s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let save_tsv path entries =
  Atomic_file.write path (fun oc ->
      output_string oc "engine\tworkload\tindex\tconfig\toutcome\tlatency_us\n";
      List.iter
        (fun t ->
          Printf.fprintf oc "%s\t%s\t%d\t%s\t%s\t%.3f\n" (sanitize t.engine)
            (sanitize t.workload) t.index (sanitize (t.config ()))
            (outcome_to_string t.outcome)
            (if t.latency < infinity then t.latency *. 1e6 else -1.))
        entries)
