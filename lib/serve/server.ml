module Metrics = Hidet_obs.Metrics
module Trace = Hidet_obs.Trace
module Events = Hidet_obs.Events

type config = {
  batcher : Batcher.config;
  workers : int;
  max_inflight : int;
  service_scale : float;
}

let validate cfg =
  Batcher.validate cfg.batcher;
  if cfg.workers < 1 then invalid_arg "Server: workers must be >= 1";
  if cfg.max_inflight < 1 then invalid_arg "Server: max_inflight must be >= 1";
  if cfg.service_scale <= 0. then
    invalid_arg "Server: service_scale must be > 0"

type outcome =
  | Completed of {
      bid : int;
      dispatch : float;
      completion : float;
      bucket : int;
    }
  | Shed of float
  | Rejected of float

type record = { req : Loadgen.request; outcome : outcome }

type schedule = {
  records : record list;
  batches : Pool.batch list;
  makespan : float;
}

let m_requests = Metrics.counter "serve.requests"
let m_rejected = Metrics.counter "serve.rejected"
let m_shed = Metrics.counter "serve.shed"
let m_completed = Metrics.counter "serve.completed"
let m_batches = Metrics.counter "serve.batches"
let m_padded = Metrics.counter "serve.padded_rows"

let ms_bounds =
  [| 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000. |]

let h_wait = Metrics.histogram ~bounds:ms_bounds "serve.queue_wait_ms"
let h_e2e = Metrics.histogram ~bounds:ms_bounds "serve.e2e_ms"

let h_batch =
  Metrics.histogram ~bounds:[| 1.; 2.; 4.; 8.; 16.; 32. |] "serve.batch_size"

let h_pad_frac =
  Metrics.histogram
    ~bounds:[| 0.01; 0.125; 0.25; 0.375; 0.5; 0.625; 0.75; 0.875 |]
    "serve.padding_frac"

let m_deadline_miss = Metrics.counter "serve.deadline_miss"

(* Per-stage latency attribution: where a completed request's budget
   went. Queue wait is dispatch - arrival (h_wait above); assembly is
   how long the batch's oldest member waited for co-batching; execute is
   the batch's virtual service time. *)
let h_assembly = Metrics.histogram ~bounds:ms_bounds "serve.assembly_ms"
let h_exec = Metrics.histogram ~bounds:ms_bounds "serve.execute_ms"

(* Lifecycle events: one atomic load when no sink is attached. *)
let emit ?(attrs = []) ~t ~rid kind =
  if Events.enabled () then Events.record { Events.t; rid; kind; attrs }

(* Flow-arc id scheme: a request rid's arc is [2 * rid], a batch bid's
   arc is [2 * bid + 1] — disjoint id spaces, so one trace can carry
   both without collisions. *)
let req_flow rid = 2 * rid
let batch_flow bid = (2 * bid) + 1

(* The event loop's mutable state. Time only moves forward, and every
   tie is broken deterministically (open-loop arrivals before closed-loop
   issues, lower client index first, lowest idle worker first). *)
type sim = {
  cfg : config;
  lg : Loadgen.t;
  latency : int -> float;
  min_service : float;  (* fastest possible service: the shedding bar *)
  mutable now : float;
  mutable open_pending : float list;  (* future open-loop arrival times *)
  client_next : float array;  (* next closed-loop issue time, or infinity *)
  mutable next_rid : int;
  queue : Loadgen.request Queue.t;
  mutable timer : float;  (* batcher's Wait_until target, or infinity *)
  busy : float array;  (* per virtual worker: free-at time *)
  mutable inflight : (float * Pool.batch) list;  (* ascending completion *)
  mutable next_bid : int;
  mutable records : record list;  (* reverse rid order *)
  mutable batches : Pool.batch list;  (* reverse dispatch order *)
  mutable makespan : float;
}

let record sim req outcome =
  sim.records <- { req; outcome } :: sim.records

(* A closed-loop client got its answer (or its shed/reject notice) at
   [t]: it thinks, then reissues — unless the run is past its duration. *)
let client_reissue sim client t =
  if client >= 0 then begin
    let t' = t +. (match sim.lg.Loadgen.profile with
                   | Loadgen.Closed_loop { think; _ } -> think
                   | Loadgen.Open_loop _ -> 0.)
    in
    sim.client_next.(client) <-
      (if t' < sim.lg.Loadgen.duration then t' else Float.infinity)
  end

let admit sim (req : Loadgen.request) =
  Metrics.incr m_requests;
  let rid = req.Loadgen.rid in
  if Queue.length sim.queue >= sim.cfg.batcher.Batcher.queue_cap then begin
    Metrics.incr m_rejected;
    record sim req (Rejected req.Loadgen.arrival);
    emit ~t:req.Loadgen.arrival ~rid Events.Rejected
      ~attrs:(("queue", string_of_int (Queue.length sim.queue))
              :: Loadgen.request_attrs req);
    Trace.span "serve.reject"
      ~attrs:(fun () -> ("rid", string_of_int rid) :: Loadgen.request_attrs req)
      (fun _ -> Trace.flow ~id:(req_flow rid) ~dir:Trace.Flow_end "serve.req");
    client_reissue sim req.Loadgen.client req.Loadgen.arrival
  end
  else begin
    Queue.push req sim.queue;
    emit ~t:req.Loadgen.arrival ~rid Events.Admitted
      ~attrs:(("queue", string_of_int (Queue.length sim.queue))
              :: Loadgen.request_attrs req);
    Trace.span "serve.admit"
      ~attrs:(fun () -> ("rid", string_of_int rid) :: Loadgen.request_attrs req)
      (fun _ -> Trace.flow ~id:(req_flow rid) ~dir:Trace.Flow_start "serve.req")
  end

(* Pull every arrival due at or before [sim.now], in time order; open-loop
   and closed-loop sources never coexist so cross-source ties are moot. *)
let rec admit_due sim =
  match sim.open_pending with
  | t :: rest when t <= sim.now ->
    let rid = sim.next_rid in
    sim.next_rid <- rid + 1;
    sim.open_pending <- rest;
    admit sim
      {
        Loadgen.rid;
        client = -1;
        arrival = t;
        deadline = t +. sim.lg.Loadgen.deadline;
      };
    admit_due sim
  | _ ->
    let due = ref (-1) in
    Array.iteri
      (fun c t ->
        if t <= sim.now && (!due < 0 || t < sim.client_next.(!due)) then
          due := c)
      sim.client_next;
    if !due >= 0 then begin
      let c = !due in
      let t = sim.client_next.(c) in
      sim.client_next.(c) <- Float.infinity;
      let rid = sim.next_rid in
      sim.next_rid <- rid + 1;
      admit sim
        {
          Loadgen.rid;
          client = c;
          arrival = t;
          deadline = t +. sim.lg.Loadgen.deadline;
        };
      admit_due sim
    end

(* Requests that can no longer meet their deadline even if dispatched
   right now are shed rather than executed. The queue is arrival-ordered
   and deadlines are arrival + constant, so the hopeless ones are always
   a prefix. *)
let rec shed_hopeless sim =
  match Queue.peek_opt sim.queue with
  | Some r when r.Loadgen.deadline < sim.now +. sim.min_service ->
    ignore (Queue.pop sim.queue);
    Metrics.incr m_shed;
    record sim r (Shed sim.now);
    emit ~t:sim.now ~rid:r.Loadgen.rid Events.Shed
      ~attrs:[ ("deadline", Printf.sprintf "%g" r.Loadgen.deadline) ];
    Trace.span "serve.shed"
      ~attrs:(fun () ->
        ("rid", string_of_int r.Loadgen.rid) :: Loadgen.request_attrs r)
      (fun _ ->
        Trace.flow ~id:(req_flow r.Loadgen.rid) ~dir:Trace.Flow_end "serve.req");
    client_reissue sim r.Loadgen.client sim.now;
    shed_hopeless sim
  | _ -> ()

let complete_due sim =
  let rec go () =
    match sim.inflight with
    | (t, b) :: rest when t <= sim.now ->
      sim.inflight <- rest;
      Metrics.observe h_exec ((t -. b.Pool.dispatch) *. 1e3);
      List.iter
        (fun (r : Loadgen.request) ->
          Metrics.incr m_completed;
          Metrics.observe h_wait
            ((b.Pool.dispatch -. r.Loadgen.arrival) *. 1e3);
          Metrics.observe h_e2e ((t -. r.Loadgen.arrival) *. 1e3);
          record sim r
            (Completed
               {
                 bid = b.Pool.bid;
                 dispatch = b.Pool.dispatch;
                 completion = t;
                 bucket = b.Pool.bucket;
               });
          let miss = t > r.Loadgen.deadline in
          emit ~t ~rid:r.Loadgen.rid Events.Completed
            ~attrs:
              [
                ("bid", string_of_int b.Pool.bid);
                ("miss", if miss then "1" else "0");
              ];
          Trace.span "serve.complete"
            ~attrs:(fun () ->
              [
                ("rid", string_of_int r.Loadgen.rid);
                ("bid", string_of_int b.Pool.bid);
                ("miss", if miss then "1" else "0");
              ])
            (fun _ ->
              Trace.flow ~id:(req_flow r.Loadgen.rid) ~dir:Trace.Flow_step
                "serve.req");
          if miss then begin
            Metrics.incr m_deadline_miss;
            (* The event above is already in the flight ring, so the
               frozen dump carries this request's full timeline. *)
            ignore
              (Events.flight_trip ~reason:"deadline_miss" ~rid:r.Loadgen.rid ~t
                 ())
          end;
          client_reissue sim r.Loadgen.client t)
        b.Pool.members;
      go ()
    | _ -> ()
  in
  go ()

let idle_worker sim =
  let found = ref (-1) in
  Array.iteri
    (fun w t -> if !found < 0 && t <= sim.now then found := w)
    sim.busy;
  !found

let no_more_arrivals sim =
  sim.open_pending = []
  && Array.for_all (fun t -> t = Float.infinity) sim.client_next

let take n q =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (Queue.pop q :: acc) in
  go n []

let rec dispatch_ready sim =
  sim.timer <- Float.infinity;
  let w = idle_worker sim in
  if w >= 0 && List.length sim.inflight < sim.cfg.max_inflight then begin
    let oldest =
      match Queue.peek_opt sim.queue with
      | Some r -> r.Loadgen.arrival
      | None -> 0.
    in
    let draining = no_more_arrivals sim && sim.inflight = [] in
    match
      Batcher.decide sim.cfg.batcher ~now:sim.now
        ~queue_len:(Queue.length sim.queue) ~oldest_arrival:oldest ~draining
    with
    | Batcher.Wait_event -> ()
    | Batcher.Wait_until t -> sim.timer <- t
    | Batcher.Dispatch k as decision ->
      let k = min k (Queue.length sim.queue) in
      let members = take k sim.queue in
      let bucket = Batcher.bucket_for sim.cfg.batcher k in
      let service = sim.latency bucket *. sim.cfg.service_scale in
      let completion = sim.now +. service in
      let b =
        {
          Pool.bid = sim.next_bid;
          bucket;
          members;
          dispatch = sim.now;
          completion;
          worker = w;
        }
      in
      sim.next_bid <- sim.next_bid + 1;
      sim.busy.(w) <- completion;
      sim.inflight <-
        List.merge
          (fun (a, _) (b, _) -> compare a b)
          sim.inflight [ (completion, b) ];
      sim.batches <- b :: sim.batches;
      sim.makespan <- Float.max sim.makespan completion;
      Metrics.incr m_batches;
      Metrics.add m_padded (Pool.padded_rows b);
      Metrics.observe h_batch (float_of_int k);
      Metrics.observe h_pad_frac
        (float_of_int (Pool.padded_rows b) /. float_of_int bucket);
      Metrics.observe h_assembly ((sim.now -. oldest) *. 1e3);
      if Events.enabled () then
        List.iter
          (fun (r : Loadgen.request) ->
            let rid = r.Loadgen.rid in
            emit ~t:sim.now ~rid Events.Batched
              ~attrs:
                [
                  ("bid", string_of_int b.Pool.bid);
                  ("bucket", string_of_int bucket);
                ];
            emit ~t:sim.now ~rid Events.Dispatched
              ~attrs:
                [ ("bid", string_of_int b.Pool.bid); ("worker", string_of_int w) ])
          members;
      Trace.span "serve.dispatch"
        ~attrs:(fun () ->
          [
            ("bid", string_of_int b.Pool.bid);
            ("bucket", string_of_int bucket);
            ("members", string_of_int k);
            ("padded", string_of_int (Pool.padded_rows b));
            ("worker", string_of_int w);
            ("decision", Batcher.decision_to_string decision);
          ])
        (fun _ ->
          Trace.flow ~id:(batch_flow b.Pool.bid) ~dir:Trace.Flow_start
            "serve.batch";
          List.iter
            (fun (r : Loadgen.request) ->
              Trace.flow ~id:(req_flow r.Loadgen.rid) ~dir:Trace.Flow_step
                "serve.req")
            members);
      dispatch_ready sim
  end

let next_event sim =
  let m = Float.infinity in
  let m = match sim.open_pending with t :: _ -> Float.min m t | [] -> m in
  let m = Array.fold_left Float.min m sim.client_next in
  let m =
    match sim.inflight with (t, _) :: _ -> Float.min m t | [] -> m
  in
  if Queue.is_empty sim.queue then m else Float.min m sim.timer

let simulate cfg ~latency lg =
  validate cfg;
  Loadgen.validate lg;
  Trace.span "serve.simulate"
    ~attrs:(fun () ->
      [
        ("seed", string_of_int lg.Loadgen.seed);
        ("duration", Printf.sprintf "%g" lg.Loadgen.duration);
      ])
    (fun _ ->
      let clients =
        match lg.Loadgen.profile with
        | Loadgen.Closed_loop { clients; _ } -> clients
        | Loadgen.Open_loop _ -> 0
      in
      let sim =
        {
          cfg;
          lg;
          latency;
          min_service =
            latency (Batcher.bucket_for cfg.batcher 1) *. cfg.service_scale;
          now = 0.;
          open_pending = Loadgen.open_arrivals lg;
          client_next = Array.make (max clients 1) Float.infinity;
          next_rid = 0;
          queue = Queue.create ();
          timer = Float.infinity;
          busy = Array.make cfg.workers 0.;
          inflight = [];
          next_bid = 0;
          records = [];
          batches = [];
          makespan = 0.;
        }
      in
      (* Closed-loop clients all fire their first request at t = 0. *)
      for c = 0 to clients - 1 do
        sim.client_next.(c) <- 0.
      done;
      let rec loop () =
        complete_due sim;
        admit_due sim;
        shed_hopeless sim;
        dispatch_ready sim;
        let t = next_event sim in
        if t < Float.infinity then begin
          sim.now <- Float.max sim.now t;
          loop ()
        end
      in
      loop ();
      assert (Queue.is_empty sim.queue && sim.inflight = []);
      {
        records = List.rev sim.records;
        batches = List.rev sim.batches;
        makespan = sim.makespan;
      })

type stats = {
  offered : int;
  admitted : int;
  completed : int;
  shed : int;
  rejected : int;
  deadline_miss : int;
  batches : int;
  padded_rows : int;
  mean_batch : float;
  padding_frac : float;
  makespan : float;
  throughput : float;
  wait_p50 : float;
  wait_p95 : float;
  wait_p99 : float;
  e2e_mean : float;
  e2e_p50 : float;
  e2e_p95 : float;
  e2e_p99 : float;
}

(* Exact nearest-rank percentile of an unsorted sample; nan when empty. *)
let percentile xs q =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let xs = Array.copy xs in
    Array.sort compare xs;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    xs.(max 0 (min (n - 1) (rank - 1)))
  end

let stats (s : schedule) =
  let offered = List.length s.records in
  let count p = List.length (List.filter p s.records) in
  let rejected = count (fun r -> match r.outcome with Rejected _ -> true | _ -> false) in
  let shed = count (fun r -> match r.outcome with Shed _ -> true | _ -> false) in
  (* (arrival, deadline, dispatch, completion) per completed request *)
  let completed_rs =
    List.filter_map
      (fun r ->
        match r.outcome with
        | Completed { dispatch; completion; _ } ->
          Some
            ( r.req.Loadgen.arrival,
              r.req.Loadgen.deadline,
              dispatch,
              completion )
        | _ -> None)
      s.records
  in
  let completed = List.length completed_rs in
  let deadline_miss =
    List.length
      (List.filter (fun (_, dl, _, c) -> c > dl) completed_rs)
  in
  let waits =
    Array.of_list (List.map (fun (a, _, d, _) -> d -. a) completed_rs)
  in
  let e2es =
    Array.of_list (List.map (fun (a, _, _, c) -> c -. a) completed_rs)
  in
  let batches = List.length s.batches in
  let padded_rows =
    List.fold_left (fun acc b -> acc + Pool.padded_rows b) 0 s.batches
  in
  let rows =
    List.fold_left (fun acc (b : Pool.batch) -> acc + b.Pool.bucket) 0 s.batches
  in
  {
    offered;
    admitted = offered - rejected;
    completed;
    shed;
    rejected;
    deadline_miss;
    batches;
    padded_rows;
    mean_batch =
      (if batches = 0 then 0.
       else float_of_int (rows - padded_rows) /. float_of_int batches);
    padding_frac =
      (if rows = 0 then 0. else float_of_int padded_rows /. float_of_int rows);
    makespan = s.makespan;
    throughput =
      (if s.makespan <= 0. then 0.
       else float_of_int completed /. s.makespan);
    wait_p50 = percentile waits 0.50;
    wait_p95 = percentile waits 0.95;
    wait_p99 = percentile waits 0.99;
    e2e_mean =
      (if completed = 0 then Float.nan
       else Array.fold_left ( +. ) 0. e2es /. float_of_int completed);
    e2e_p50 = percentile e2es 0.50;
    e2e_p95 = percentile e2es 0.95;
    e2e_p99 = percentile e2es 0.99;
  }

(* Every request contributes one SLO sample at the virtual time its fate
   was decided: completed-in-deadline is good; a late completion, a shed
   or a reject is a budget burn. *)
let slo_samples (s : schedule) =
  List.map
    (fun r ->
      match r.outcome with
      | Completed { completion; _ } ->
        { Slo.t = completion; good = completion <= r.req.Loadgen.deadline }
      | Shed t -> { Slo.t = t; good = false }
      | Rejected t -> { Slo.t = t; good = false })
    s.records

let slo_verdict ?config ~duration s =
  let cfg = match config with Some c -> c | None -> Slo.default ~duration in
  Slo.evaluate cfg (slo_samples s)

type report = {
  schedule : schedule;
  summary : stats;
  responses : (int * Hidet_tensor.Tensor.t) list;
  mismatches : int option;
  slo : Slo.verdict;
}

let run ?(exec = true) ?(check = true) ?exec_workers ?slo_config cfg model lg =
  let sched =
    simulate cfg ~latency:(fun b -> Registry.latency model b) lg
  in
  let responses =
    if exec then
      Pool.execute ?workers:exec_workers ~seed:lg.Loadgen.seed model
        sched.batches
    else []
  in
  let mismatches =
    if exec && check then begin
      (* Verified events carry the request's virtual completion time so
         they sort into its timeline, not at wall-clock zero. *)
      let completion_at =
        let tbl = Hashtbl.create 256 in
        List.iter
          (fun r ->
            match r.outcome with
            | Completed { completion; _ } ->
              Hashtbl.replace tbl r.req.Loadgen.rid completion
            | _ -> ())
          sched.records;
        fun rid -> try Hashtbl.find tbl rid with Not_found -> 0.
      in
      Some (Pool.check ~at:completion_at ~seed:lg.Loadgen.seed model responses)
    end
    else None
  in
  {
    schedule = sched;
    summary = stats sched;
    responses;
    mismatches;
    slo = slo_verdict ?config:slo_config ~duration:lg.Loadgen.duration sched;
  }

let pp_report fmt r =
  let s = r.summary in
  let ms x = x *. 1e3 in
  Format.fprintf fmt "serve: SLO report@.";
  Format.fprintf fmt
    "  traffic    offered=%d admitted=%d completed=%d shed=%d rejected=%d@."
    s.offered s.admitted s.completed s.shed s.rejected;
  Format.fprintf fmt
    "  batching   batches=%d mean_batch=%.2f padded_rows=%d padding=%.1f%%@."
    s.batches s.mean_batch s.padded_rows (100. *. s.padding_frac);
  Format.fprintf fmt
    "  slo        deadline_miss=%d makespan=%.3fs throughput=%.1f req/s@."
    s.deadline_miss s.makespan s.throughput;
  Format.fprintf fmt "  queue wait p50=%.2fms p95=%.2fms p99=%.2fms@."
    (ms s.wait_p50) (ms s.wait_p95) (ms s.wait_p99);
  Format.fprintf fmt
    "  e2e        mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms@."
    (ms s.e2e_mean) (ms s.e2e_p50) (ms s.e2e_p95) (ms s.e2e_p99);
  Slo.pp_verdict fmt r.slo;
  match r.mismatches with
  | None ->
    Format.fprintf fmt "  responses  %d (unverified)@."
      (List.length r.responses)
  | Some 0 ->
    Format.fprintf fmt
      "  responses  %d verified bit-identical to batch-1 plan@."
      (List.length r.responses)
  | Some n ->
    Format.fprintf fmt "  responses  %d MISMATCHES out of %d@." n
      (List.length r.responses)

let stats_to_json s =
  let module J = Hidet_obs.Json in
  let int n = J.Num (float_of_int n) and num x = J.Num (J.round_sig 9 x) in
  J.Obj
    [
      ("offered", int s.offered);
      ("admitted", int s.admitted);
      ("completed", int s.completed);
      ("shed", int s.shed);
      ("rejected", int s.rejected);
      ("deadline_miss", int s.deadline_miss);
      ("batches", int s.batches);
      ("padded_rows", int s.padded_rows);
      ("mean_batch", num s.mean_batch);
      ("padding_frac", num s.padding_frac);
      ("makespan_s", num s.makespan);
      ("throughput_rps", num s.throughput);
      ("wait_p50_ms", num (s.wait_p50 *. 1e3));
      ("wait_p95_ms", num (s.wait_p95 *. 1e3));
      ("wait_p99_ms", num (s.wait_p99 *. 1e3));
      ("e2e_mean_ms", num (s.e2e_mean *. 1e3));
      ("e2e_p50_ms", num (s.e2e_p50 *. 1e3));
      ("e2e_p95_ms", num (s.e2e_p95 *. 1e3));
      ("e2e_p99_ms", num (s.e2e_p99 *. 1e3));
    ]
