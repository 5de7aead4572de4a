(* Request-lifecycle event log.

   Where Trace answers "what was each domain doing when", the event log
   answers "what happened to request 17": every serve request carries a
   stable request id and emits a small fixed vocabulary of lifecycle
   events with virtual timestamps. The log is a bounded mutex'd ring —
   worker domains emit concurrently during real execution — exported as
   JSONL (one object per line) and hand-validated like chrome_trace. *)

type kind =
  | Admitted
  | Rejected
  | Shed
  | Batched
  | Dispatched
  | Executed
  | Verified
  | Completed

let kind_to_string = function
  | Admitted -> "admitted"
  | Rejected -> "rejected"
  | Shed -> "shed"
  | Batched -> "batched"
  | Dispatched -> "dispatched"
  | Executed -> "executed"
  | Verified -> "verified"
  | Completed -> "completed"

let kind_of_string = function
  | "admitted" -> Some Admitted
  | "rejected" -> Some Rejected
  | "shed" -> Some Shed
  | "batched" -> Some Batched
  | "dispatched" -> Some Dispatched
  | "executed" -> Some Executed
  | "verified" -> Some Verified
  | "completed" -> Some Completed
  | _ -> None

(* Emission order within one timestamp: control-plane decisions first,
   then data-plane confirmations. Used by [sort_events] to make logs
   deterministic even when worker domains emitted out of order. *)
let kind_rank = function
  | Admitted -> 0
  | Rejected -> 1
  | Shed -> 2
  | Batched -> 3
  | Dispatched -> 4
  | Completed -> 5
  | Executed -> 6
  | Verified -> 7

type event = {
  t : float;  (* virtual seconds *)
  rid : int;
  kind : kind;
  attrs : (string * string) list;
}

(* --- bounded ring ------------------------------------------------------ *)

type log = {
  buf : event option array;
  mutable head : int;  (* next write position *)
  mutable len : int;
  mutable seen : int;  (* total emitted, including dropped *)
  lock : Mutex.t;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Events.create: capacity must be positive";
  { buf = Array.make capacity None; head = 0; len = 0; seen = 0; lock = Mutex.create () }

let emit log ev =
  Mutex.lock log.lock;
  let cap = Array.length log.buf in
  log.buf.(log.head) <- Some ev;
  log.head <- (log.head + 1) mod cap;
  if log.len < cap then log.len <- log.len + 1;
  log.seen <- log.seen + 1;
  Mutex.unlock log.lock

let events log =
  Mutex.lock log.lock;
  let cap = Array.length log.buf in
  let start = (log.head - log.len + cap) mod cap in
  let out =
    List.init log.len (fun i ->
        match log.buf.((start + i) mod cap) with
        | Some ev -> ev
        | None -> assert false)
  in
  Mutex.unlock log.lock;
  out

let total log =
  Mutex.lock log.lock;
  let n = log.seen in
  Mutex.unlock log.lock;
  n

let dropped log =
  Mutex.lock log.lock;
  let n = log.seen - log.len in
  Mutex.unlock log.lock;
  n

let sort_events evs =
  List.stable_sort
    (fun a b ->
      let c = Float.compare a.t b.t in
      if c <> 0 then c
      else
        let c = Int.compare a.rid b.rid in
        if c <> 0 then c else Int.compare (kind_rank a.kind) (kind_rank b.kind))
    evs

(* --- JSONL ------------------------------------------------------------- *)

(* The writer prints each timestamp as the shortest decimal that reads
   back to the same double, so the parsed log compares bit-equal to the
   emitted one. *)
let event_to_json ev =
  Json.Obj
    ([
       ("t", Json.Num ev.t);
       ("rid", Json.Num (float_of_int ev.rid));
       ("ev", Json.Str (kind_to_string ev.kind));
     ]
    @
    if ev.attrs = [] then []
    else [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ev.attrs)) ])

let to_jsonl evs =
  String.concat "" (List.map (fun ev -> Json.to_string (event_to_json ev) ^ "\n") evs)

let save_jsonl path evs =
  Atomic_file.write path (fun oc -> output_string oc (to_jsonl evs))

let event_of_json line =
  match Json.parse line with
  | Error e -> Error e
  | Ok j -> (
    match j with
    | Json.Obj fields ->
      let get k = List.assoc_opt k fields in
      (match (get "t", get "rid", get "ev") with
      | Some (Json.Num t), Some (Json.Num rid), Some (Json.Str ks) -> (
        if Float.is_nan t then Error "event: \"t\" is nan"
        else if Float.of_int (int_of_float rid) <> rid then
          Error "event: \"rid\" is not an integer"
        else
          match kind_of_string ks with
          | None -> Error (Printf.sprintf "event: unknown kind %S" ks)
          | Some kind -> (
            match get "attrs" with
            | None -> Ok { t; rid = int_of_float rid; kind; attrs = [] }
            | Some (Json.Obj attrs) ->
              let rec conv acc = function
                | [] -> Ok (List.rev acc)
                | (k, Json.Str v) :: rest -> conv ((k, v) :: acc) rest
                | (k, _) :: _ ->
                  Error (Printf.sprintf "event: attr %S is not a string" k)
              in
              (match conv [] attrs with
              | Ok attrs -> Ok { t; rid = int_of_float rid; kind; attrs }
              | Error e -> Error e)
            | Some _ -> Error "event: \"attrs\" is not an object"))
      | _ -> Error "event: requires numeric \"t\", numeric \"rid\", string \"ev\"")
    | _ -> Error "event: line is not an object")

let parse_jsonl s =
  let lines = String.split_on_char '\n' s in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      if String.trim line = "" then go (n + 1) acc rest
      else (
        match event_of_json line with
        | Ok ev -> go (n + 1) (ev :: acc) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go 1 [] lines

(* --- lifecycle validation ---------------------------------------------- *)

(* Per request id: timestamps non-decreasing; the first event is
   [Admitted] or [Rejected]; there is exactly one terminal event
   ([Rejected]/[Shed]/[Completed]); [Rejected] is the sole event of its
   request; [Shed] follows a bare [Admitted]; [Completed] requires
   exactly one [Batched] and one [Dispatched] in between, with
   [Executed]/[Verified] (at most one each) after [Dispatched] — the
   data plane may confirm before or after the virtual-time completion. *)
let check_lifecycle evs =
  let by_rid = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      let l = try Hashtbl.find by_rid ev.rid with Not_found -> [] in
      Hashtbl.replace by_rid ev.rid (ev :: l))
    evs;
  let err = ref None in
  let fail rid msg =
    if !err = None then err := Some (Printf.sprintf "rid %d: %s" rid msg)
  in
  Hashtbl.iter
    (fun rid revs ->
      let evs = List.rev revs in
      (* timestamps monotone *)
      ignore
        (List.fold_left
           (fun prev ev ->
             if ev.t < prev then fail rid "timestamps not monotone";
             ev.t)
           Float.neg_infinity evs);
      let count k = List.length (List.filter (fun e -> e.kind = k) evs) in
      (match evs with
      | [] -> ()
      | first :: _ ->
        if first.kind <> Admitted && first.kind <> Rejected then
          fail rid "first event must be admitted or rejected");
      let terminals = count Rejected + count Shed + count Completed in
      if terminals <> 1 then
        fail rid (Printf.sprintf "%d terminal events (want exactly 1)" terminals);
      if count Rejected > 0 && List.length evs <> 1 then
        fail rid "rejected must be the sole event";
      if count Shed > 0 then begin
        match List.map (fun e -> e.kind) evs with
        | [ Admitted; Shed ] -> ()
        | _ -> fail rid "shed request must be exactly [admitted; shed]"
      end;
      if count Completed > 0 then begin
        if count Admitted <> 1 then fail rid "completed request must be admitted once";
        if count Batched <> 1 then fail rid "completed request must be batched once";
        if count Dispatched <> 1 then
          fail rid "completed request must be dispatched once";
        if count Executed > 1 then fail rid "more than one executed event";
        if count Verified > 1 then fail rid "more than one verified event";
        (* order: admitted < batched <= dispatched < completed;
           executed/verified after dispatched *)
        let pos k =
          let rec go i = function
            | [] -> -1
            | e :: rest -> if e.kind = k then i else go (i + 1) rest
          in
          go 0 evs
        in
        let a = pos Admitted
        and b = pos Batched
        and d = pos Dispatched
        and c = pos Completed in
        if not (a < b && b <= d && d < c) then
          fail rid "order must be admitted, batched, dispatched, completed";
        let after_dispatch k =
          let p = pos k in
          if p >= 0 && p < d then fail rid (kind_to_string k ^ " before dispatched")
        in
        after_dispatch Executed;
        after_dispatch Verified
      end)
    by_rid;
  match !err with
  | Some e -> Error e
  | None -> Ok (List.length evs, Hashtbl.length by_rid)

let check s =
  match parse_jsonl s with
  | Error e -> Error e
  | Ok evs -> check_lifecycle evs

let check_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  check s

(* --- flight recorder --------------------------------------------------- *)

module Flight = struct
  (* A second, smaller ring holding the most recent events; when the
     first deadline miss or verification mismatch trips it, the ring is
     frozen into a JSON dump carrying the offending request's full
     timeline plus the surrounding context. Fires at most once per
     arming so overload storms produce one artifact, not thousands. *)

  type t = {
    ring : log;
    fired : string option Atomic.t;  (* captured dump JSON *)
  }

  let create ?(capacity = 256) () = { ring = create ~capacity (); fired = Atomic.make None }
  let record fr ev = if Atomic.get fr.fired = None then emit fr.ring ev
  let fired fr = Atomic.get fr.fired <> None
  let dump fr = Atomic.get fr.fired

  let m_dumps = Metrics.counter "obs.flight_dumps"

  let render ~reason ~rid ~t recent =
    let events evs = Json.Arr (List.map event_to_json evs) in
    Json.to_string ~indent:2
      (Json.Obj
         [
           ("reason", Json.Str reason);
           ("rid", Json.Num (float_of_int rid));
           ("t", Json.Num t);
           ("timeline", events (List.filter (fun ev -> ev.rid = rid) recent));
           ("recent", events recent);
         ])
    ^ "\n"

  let trigger fr ~reason ~rid ~t () =
    let recent = sort_events (events fr.ring) in
    let d = render ~reason ~rid ~t recent in
    if Atomic.compare_and_set fr.fired None (Some d) then begin
      Metrics.incr m_dumps;
      true
    end
    else false

  let save fr path =
    match Atomic.get fr.fired with
    | None -> false
    | Some d ->
      Atomic_file.write path (fun oc -> output_string oc d);
      true
end

(* --- process-global sink ----------------------------------------------- *)

(* Like Trace's recorder: a process-global sink that is off by default,
   so instrumented code pays one atomic load per event when nobody is
   listening. The serving stack calls [record]; the CLI and tests turn
   the sink on around a run. *)

let current_log : log option Atomic.t = Atomic.make None
let current_flight : Flight.t option Atomic.t = Atomic.make None

let set_log l = Atomic.set current_log l
let set_flight f = Atomic.set current_flight f

let enabled () = Atomic.get current_log <> None || Atomic.get current_flight <> None

let record ev =
  (match Atomic.get current_log with Some l -> emit l ev | None -> ());
  match Atomic.get current_flight with Some fr -> Flight.record fr ev | None -> ()

(* Trip the armed flight recorder, if any. Returns [true] on the first
   (and only) trip. *)
let flight_trip ~reason ~rid ~t () =
  match Atomic.get current_flight with
  | Some fr -> Flight.trigger fr ~reason ~rid ~t ()
  | None -> false

let with_log log f =
  set_log (Some log);
  Fun.protect ~finally:(fun () -> set_log None) f
