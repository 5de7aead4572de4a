module T = Hidet_tensor.Tensor
module G = Hidet_graph.Graph
module Plan = Hidet_runtime.Plan
module Parallel = Hidet_parallel.Parallel
module Metrics = Hidet_obs.Metrics
module Trace = Hidet_obs.Trace
module Events = Hidet_obs.Events
module Clock = Hidet_obs.Clock

type batch = {
  bid : int;
  bucket : int;
  members : Loadgen.request list;
  dispatch : float;
  completion : float;
  worker : int;
}

let padded_rows b = b.bucket - List.length b.members

let m_exec_batches = Metrics.counter "serve.exec_batches"
let m_check_failures = Metrics.counter "serve.check_failures"

let h_verify =
  Metrics.histogram
    ~bounds:[| 0.01; 0.05; 0.1; 0.5; 1.; 5.; 10.; 50.; 100. |]
    "serve.verify_ms"

(* Stack member rows (leading dim 1 each) along axis 0 and zero-pad the
   tail up to [bucket]. A full one-member bucket-1 batch passes through. *)
let assemble ~bucket rows =
  match rows with
  | [ r ] when bucket = 1 -> r
  | r :: _ ->
    let tail = List.tl (T.shape r) in
    let pad = bucket - List.length rows in
    let rows =
      if pad = 0 then rows else rows @ [ T.create (pad :: tail) ]
    in
    T.concat rows ~axis:0
  | [] -> invalid_arg "Pool: empty batch"

let run_batch ~seed model b =
  let variant = Registry.variant_exn model b.bucket in
  Trace.span "serve.exec_batch"
    ~attrs:(fun () ->
      [
        ("model", model.Registry.name);
        ("bucket", string_of_int b.bucket);
        ("members", string_of_int (List.length b.members));
        ("padded", string_of_int (padded_rows b));
        ("worker", string_of_int b.worker);
      ])
    (fun _ ->
      let per_member =
        List.map
          (fun (r : Loadgen.request) ->
            Loadgen.synth_inputs ~seed ~shapes:model.Registry.input_shapes
              r.Loadgen.rid)
          b.members
      in
      let inputs =
        List.mapi
          (fun i _ ->
            assemble ~bucket:b.bucket
              (List.map (fun tensors -> List.nth tensors i) per_member))
          model.Registry.input_shapes
      in
      let bindings =
        List.combine (G.input_ids variant.Registry.graph) inputs
      in
      (* Shard-group dispatch: a bucket with a shard plan runs its
         per-device fragments (host-side collectives included); buckets
         the strategy could not partition run their unsharded plan. *)
      let outs =
        match variant.Registry.shard with
        | Some shard ->
          Hidet_shard.Shard.run ~backend:model.Registry.backend shard bindings
        | None ->
          Plan.run ~backend:model.Registry.backend variant.Registry.plan
            bindings
      in
      let out =
        match outs with
        | [ o ] -> o
        | _ -> invalid_arg "Pool: served plans have exactly one output"
      in
      let rest = List.map (fun d -> (0, d)) (List.tl (T.shape out)) in
      Metrics.incr m_exec_batches;
      (* Same family as the total, distinguished by labels; Prom renders
         them as one metric family. *)
      Metrics.incr
        (Metrics.counter_labeled "serve.exec_batches"
           [
             ("model", model.Registry.name); ("bucket", string_of_int b.bucket);
           ]);
      (* Close the batch's flow arc: the arrow from the control plane's
         serve.dispatch span lands on this worker-domain span. *)
      Trace.flow ~id:((2 * b.bid) + 1) ~dir:Trace.Flow_end "serve.batch";
      List.mapi
        (fun j (r : Loadgen.request) ->
          let rid = r.Loadgen.rid in
          Trace.span "serve.demux"
            ~attrs:(fun () ->
              [ ("rid", string_of_int rid); ("bid", string_of_int b.bid) ])
            (fun _ ->
              Trace.flow ~id:(2 * rid) ~dir:Trace.Flow_end "serve.req");
          if Events.enabled () then
            Events.record
              {
                Events.t = b.completion;
                rid;
                kind = Events.Executed;
                attrs =
                  [
                    ("bid", string_of_int b.bid);
                    ("worker", string_of_int b.worker);
                  ];
              };
          (rid, T.slice out ((j, 1) :: rest)))
        b.members)

let execute ?workers ~seed model batches =
  let results =
    Parallel.map ?workers (run_batch ~seed model) (Array.of_list batches)
  in
  List.concat (Array.to_list results)

let check ?(at = fun _ -> 0.) ~seed model responses =
  let v1 = Registry.variant_exn model 1 in
  (* Bit-exact unless some bucket runs a reduction-order-changing shard
     strategy (tensor-reduce all-reduce epilogue): those are held to the
     repo-wide graph tolerance instead. *)
  let tolerant =
    List.exists
      (fun (v : Registry.variant) ->
        match v.Registry.shard with
        | Some s ->
          not (Hidet_shard.Shard.bit_exact (Hidet_shard.Shard.strategy s))
        | None -> false)
      model.Registry.variants
  in
  let mismatches =
    Parallel.map
      (fun (rid, (got : T.t)) ->
        let t0 = Clock.now_us () in
        let inputs =
          Loadgen.synth_inputs ~seed ~shapes:model.Registry.input_shapes rid
        in
        let want =
          Plan.run1 ~backend:model.Registry.backend v1.Registry.plan inputs
        in
        (* Polymorphic compare on the raw arrays: bit-exact, NaN-robust. *)
        let ok =
          if tolerant then T.allclose ~rtol:1e-3 ~atol:1e-4 want got
          else compare (T.data got) (T.data want) = 0
        in
        Metrics.observe h_verify ((Clock.now_us () -. t0) /. 1e3);
        if Events.enabled () then
          Events.record
            {
              Events.t = at rid;
              rid;
              kind = Events.Verified;
              attrs = [ ("ok", if ok then "1" else "0") ];
            };
        if ok then 0
        else begin
          ignore
            (Events.flight_trip ~reason:"verify_mismatch" ~rid ~t:(at rid) ());
          1
        end)
      (Array.of_list responses)
  in
  let bad = Array.fold_left ( + ) 0 mismatches in
  for _ = 1 to bad do
    Metrics.incr m_check_failures
  done;
  bad
