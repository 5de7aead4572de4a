(* Process-global schedule cache.

   Tuning results are memoized across compilations, engines and models: the
   key is (device name, Key.to_string), the value records which candidate
   of the (deterministic) enumeration won, its printed config and the tuner
   stats. Storing the winner's *index* keeps the cache generic over
   candidate types; the printed config catches a space that changed
   underneath the key. Each entry also keeps, for this process only, the
   winner as instantiated (the instance memo), so a later hit returns that
   kernel instead of building it again.

   The table is mutex-protected: tuner workers run on separate domains, and
   nothing stops two engines from compiling concurrently. *)

module Trace = Hidet_obs.Trace
module Metrics = Hidet_obs.Metrics

module Key = struct
  type t = { workload : string; fidelity : Hidet_gpu.Perf_model.fidelity }

  (* Analytic is the bare workload, so those keys never change. *)
  let to_string k =
    if String.contains k.workload '#' then
      invalid_arg ("Schedule_cache.Key: '#' in workload " ^ k.workload);
    match k.fidelity with `Analytic -> k.workload | `Cycle -> k.workload ^ "#cycle"
end

type entry = {
  best_index : int;
  space_size : int;
  config : string;
  trials : int;
  rejected : int;
  simulated_seconds : float;
  best_latency : float;
}

type outcome = Fresh of Tuner.stats | Hit of entry

let magic = "HIDET-SCHEDULE-CACHE"
let version = 3

(* [instances] maps the [?instance] string of [tune] to the winner
   instantiated under it. [matched] is the last candidate value whose
   [show] equalled [entry.config], compared by physical equality only
   (candidates of every key share the table, hence [Obj.t]); [none] until
   one has. A slot is replaced whenever its entry is, so neither memo
   outlives the entry it was built from, and [clear] drops both. *)
type slot = {
  entry : entry;
  mutable instances : (string * Compiled.t) list;
  matched : Obj.t Atomic.t;
}

(* A block no candidate can be physically equal to. *)
let none = Obj.repr (ref ())

let table : (string * string, slot) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let hit_count = ref 0
let miss_count = ref 0
let stale_count = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* [find] is a pure lookup: whether a stored entry is actually servable
   (space still matches, winner still instantiates) is only known to
   [tune], so [tune] owns the hit/miss/stale accounting — the raw counters
   below and the [schedule_cache.*] metrics therefore always agree. *)
let find_slot ~device ~key = locked (fun () -> Hashtbl.find_opt table (device, key))
let find ~device ~key = Option.map (fun s -> s.entry) (find_slot ~device ~key)

let add_slot ~device ~key entry instances matched =
  locked (fun () ->
      Hashtbl.replace table (device, key)
        { entry; instances; matched = Atomic.make matched })

let add ~device ~key entry = add_slot ~device ~key entry [] none

let clear () =
  locked (fun () ->
      Hashtbl.reset table;
      hit_count := 0;
      miss_count := 0;
      stale_count := 0)

let size () = locked (fun () -> Hashtbl.length table)

let keys_for_device dev =
  locked (fun () ->
      Hashtbl.fold
        (fun (d, key) _ acc -> if d = dev then key :: acc else acc)
        table [])
  |> List.sort compare
let hits () = locked (fun () -> !hit_count)
let misses () = locked (fun () -> !miss_count)
let stale () = locked (fun () -> !stale_count)

(* --- persistence ------------------------------------------------------------

   Line-oriented text: a versioned header, then one tab-separated entry per
   line whose last column is the MD5 of the line before it. Loading
   tolerates a corrupt file: a bad header rejects the whole file (another
   format, or another version: v1 has no fingerprint, v2 no line digest),
   while a line that fails its digest or does not parse is skipped, so one
   truncated write cannot poison every other entry. The digest is what
   catches an edited line that still parses, such as a key rewritten to
   another shape with the same space. *)

let header = Printf.sprintf "%s v%d" magic version

let sanitize s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let save path =
  let entries =
    locked (fun () -> Hashtbl.fold (fun k s acc -> (k, s.entry) :: acc) table [])
  in
  let entries = List.sort compare entries in
  Hidet_obs.Atomic_file.write path (fun oc ->
      output_string oc (header ^ "\n");
      List.iter
        (fun ((device, key), e) ->
          let body =
            Printf.sprintf "%s\t%s\t%d\t%d\t%s\t%d\t%d\t%.17g\t%.17g"
              (sanitize device) (sanitize key) e.best_index e.space_size
              (sanitize e.config) e.trials e.rejected e.simulated_seconds
              e.best_latency
          in
          Printf.fprintf oc "%s\t%s\n" body (Digest.to_hex (Digest.string body)))
        entries)

let parse_fields body =
  match String.split_on_char '\t' body with
  | [ device; key; best_index; space_size; config; trials; rejected; simulated;
      lat ] -> (
    match
      ( int_of_string_opt best_index,
        int_of_string_opt space_size,
        int_of_string_opt trials,
        int_of_string_opt rejected,
        float_of_string_opt simulated,
        float_of_string_opt lat )
    with
    | Some bi, Some ss, Some tr, Some rj, Some sim, Some l
      when bi >= 0 && bi < ss && tr >= 0 && rj >= 0
           (* nan/inf/negative floats parse fine ("nan" is a valid float
              literal) but would poison every aggregate downstream. *)
           && Float.is_finite sim && sim >= 0. && Float.is_finite l
           && l >= 0. ->
      Some
        ( device,
          key,
          {
            best_index = bi;
            space_size = ss;
            config;
            trials = tr;
            rejected = rj;
            simulated_seconds = sim;
            best_latency = l;
          } )
    | _ -> None)
  | _ -> None

let parse_line line =
  match String.rindex_opt line '\t' with
  | None -> None
  | Some i ->
    let body = String.sub line 0 i in
    let digest = String.sub line (i + 1) (String.length line - i - 1) in
    if Digest.to_hex (Digest.string body) = digest then parse_fields body
    else None

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> Error "empty cache file"
        | first when first <> header ->
          Error
            (Printf.sprintf "bad cache header %S (want %S)" first header)
        | _ ->
          let loaded = ref 0 in
          (try
             while true do
               let line = input_line ic in
               match parse_line line with
               | Some (device, key, e) ->
                 add ~device ~key e;
                 incr loaded
               | None -> () (* corrupt line: skip, keep the rest *)
             done
           with End_of_file -> ());
          Ok !loaded)

(* --- the tuning service ----------------------------------------------------- *)

(* Cache effectiveness, as seen by the tuning service: [hits] were served
   from the cache, [misses] went to the tuner, [stale] had an entry that
   could not be served and were retuned (a stale entry also counts as a
   miss — it did cost a full tuning run). *)
let m_hits = Metrics.counter "schedule_cache.hits"
let m_misses = Metrics.counter "schedule_cache.misses"
let m_stale = Metrics.counter "schedule_cache.stale"

(* Hits that returned the kernel the instance memo already held; the other
   hits instantiated the winner and stored it. *)
let m_instance_reuses = Metrics.counter "schedule_cache.instance_reuses"

let tune ?seconds_per_trial ?parallel ?workers ?engine ~show
    ?(fidelity = `Analytic) ?lower_bound
    ?(instance = "") ~device ~workload ~candidates ~compile () =
  let device_name = device.Hidet_gpu.Device.name in
  let key = Key.to_string { Key.workload; fidelity } in
  let fingerprint cand = sanitize (show cand) in
  let space_size = Array.length candidates in
  let count n metric event =
    locked (fun () -> incr n);
    Metrics.incr metric;
    if Trace.enabled () then Trace.instant ~attrs:[ ("workload", key) ] event
  in
  let fresh () =
    count miss_count m_misses "schedule_cache.miss";
    match
      Tuner.tune ?seconds_per_trial ?parallel ?workers ?engine ~key ~show
        ~fidelity ?lower_bound ~device ~candidates ~compile ()
    with
    | None -> None
    | Some (cand, compiled, st) ->
      (* The tuner already built the winner: it seeds the instance memo,
         and the winner, just printed, the fingerprint's. *)
      add_slot ~device:device_name ~key
        {
          best_index = st.Tuner.best_index;
          space_size;
          config = fingerprint cand;
          trials = st.Tuner.trials;
          rejected = st.Tuner.rejected;
          simulated_seconds = st.Tuner.simulated_seconds;
          best_latency = st.Tuner.best_latency;
        }
        [ (instance, compiled) ] (Obj.repr cand);
      Some (cand, compiled, Fresh st)
  in
  (* The first instantiation stored under [instance] wins, so concurrent
     first hits still return one shared kernel. *)
  let instantiate slot cand =
    match locked (fun () -> List.assoc_opt instance slot.instances) with
    | Some compiled ->
      Metrics.incr m_instance_reuses;
      Some compiled
    | None -> (
      match compile cand with
      | exception Invalid_argument _ -> None
      | compiled ->
        Some
          (locked (fun () ->
               match List.assoc_opt instance slot.instances with
               | Some first -> first
               | None ->
                 slot.instances <- (instance, compiled) :: slot.instances;
                 compiled)))
  in
  (* Servable: same space size, the candidate at the stored index prints
     as the stored winner, and it still instantiates. Candidates are
     immutable and [show] pure, so the value the slot last matched prints
     the same again: only another value is printed. *)
  let matches slot cand =
    Atomic.get slot.matched == Obj.repr cand
    || fingerprint cand = slot.entry.config
       && (Atomic.set slot.matched (Obj.repr cand);
           true)
  in
  let servable slot =
    let e = slot.entry in
    if e.space_size <> space_size || e.best_index >= space_size then None
    else
      let cand = candidates.(e.best_index) in
      if not (matches slot cand) then None
      else Option.map (fun compiled -> (cand, compiled)) (instantiate slot cand)
  in
  match find_slot ~device:device_name ~key with
  | None -> fresh ()
  | Some slot -> (
    match servable slot with
    | Some (cand, compiled) ->
      count hit_count m_hits "schedule_cache.hit";
      Some (cand, compiled, Hit slot.entry)
    | None ->
      count stale_count m_stale "schedule_cache.stale";
      fresh ())
