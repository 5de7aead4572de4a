(* Tests for multi-device sharded execution: the cluster cost model,
   partition-then-gather identity under every bit-exact strategy, the
   ULP-bounded all-reduce epilogue of row-parallel tensor parallelism,
   pipeline virtual-time schedule conservation, per-device schedule-cache
   isolation, plus the Passes.rebatch edge cases and the
   Space.sample_matmul clamping regression the shard work depends on. *)

module Shard = Hidet_shard.Shard
module BS = Hidet_shard.Batch_split
module Cluster = Hidet_gpu.Cluster
module Device = Hidet_gpu.Device
module G = Hidet_graph.Graph
module Passes = Hidet_graph.Passes
module T = Hidet_tensor.Tensor
module SC = Hidet_sched.Schedule_cache
module Space = Hidet_sched.Space

let rtx = Device.rtx3090
let a100 = Device.a100

(* A small batch-splittable MLP: input [batch; rows; dim], [layers] of
   matmul+relu against rank-2 weights. Splittable by every strategy
   (leading batch dim, rank-2 leaf weights, contiguous stages). *)
let mlp_graph ?(rows = 3) ?(dim = 16) ?(layers = 2) ~batch ~seed () =
  let g = G.create () in
  G.name g (Printf.sprintf "qmlp_b%d_r%d_d%d_l%d" batch rows dim layers);
  let x = G.input g [ batch; rows; dim ] in
  let h = ref x in
  for i = 1 to layers do
    let w = G.constant_rand g ~seed:(seed + i) [ dim; dim ] in
    h := G.relu g (G.matmul g !h w)
  done;
  G.set_outputs g [ !h ];
  g

let rand_inputs ~seed g =
  List.mapi
    (fun i id -> T.rand ~seed:(seed + (31 * i)) (G.node_shape g id))
    (G.input_ids g)

(* --- collective cost model -------------------------------------------------- *)

let test_cluster_costs () =
  let cl = Cluster.homogeneous ~n:4 rtx in
  let { Cluster.latency = l; bandwidth = bw } = cl.Cluster.link in
  let bytes = 1e6 in
  Alcotest.(check (float 1e-12))
    "p2p = alpha + beta"
    (l +. (bytes /. bw))
    (Cluster.p2p_time cl ~bytes);
  Alcotest.(check (float 1e-12))
    "ring all-reduce"
    ((2. *. 3. *. l) +. (2. *. 3. /. 4. *. bytes /. bw))
    (Cluster.all_reduce_time cl ~bytes);
  Alcotest.(check (float 1e-12))
    "ring all-gather"
    ((3. *. l) +. (3. /. 4. *. bytes /. bw))
    (Cluster.all_gather_time cl ~bytes);
  (* A single device pays nothing for any collective. *)
  let solo = Cluster.homogeneous ~n:1 rtx in
  Alcotest.(check (float 0.)) "solo all-reduce free" 0.
    (Cluster.all_reduce_time solo ~bytes);
  Alcotest.(check (float 0.)) "solo all-gather free" 0.
    (Cluster.all_gather_time solo ~bytes);
  (match Cluster.homogeneous ~n:0 rtx with
  | _ -> Alcotest.fail "n = 0 must be rejected"
  | exception Invalid_argument _ -> ());
  match Cluster.of_devices [] with
  | _ -> Alcotest.fail "empty device list must be rejected"
  | exception Invalid_argument _ -> ()

(* --- split-size arithmetic -------------------------------------------------- *)

let test_split_sizes () =
  let sizes ~rows ~parts = Array.to_list (BS.split_sizes ~rows ~parts) in
  Alcotest.(check (list int)) "even" [ 4; 4 ] (sizes ~rows:8 ~parts:2);
  Alcotest.(check (list int))
    "ceil-first" [ 3; 2; 2 ]
    (sizes ~rows:7 ~parts:3);
  Alcotest.(check (list int)) "one row each" [ 1; 1; 1 ]
    (sizes ~rows:3 ~parts:3);
  List.iter
    (fun (rows, parts) ->
      match BS.split_sizes ~rows ~parts with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [ (2, 3); (5, 0); (4, -1) ];
  (* Sum is always conserved. *)
  for rows = 1 to 12 do
    for parts = 1 to rows do
      Alcotest.(check int)
        (Printf.sprintf "sum %d/%d" rows parts)
        rows
        (List.fold_left ( + ) 0 (sizes ~rows ~parts))
    done
  done

(* --- partition-then-gather identity (bit-exact strategies) ------------------ *)

(* Random small MLPs x random device counts: every strategy that preserves
   reduction extents must reproduce the single-device baseline bit for
   bit ([Shard.verify] compares via [Int64.bits_of_float]). *)
let bit_exact_arb =
  let gen =
    let open QCheck.Gen in
    let* batch = int_range 2 6 in
    let* devices = int_range 2 (min 4 batch) in
    let* rows = int_range 2 4 in
    let* dim = oneofl [ 8; 16 ] in
    let* layers = int_range 1 3 in
    let* strat =
      oneofl
        [ Shard.Data; Shard.Tensor Shard.Gather;
          Shard.Pipeline { microbatches = 2 } ]
    in
    let* seed = int_range 0 10_000 in
    return (batch, devices, rows, dim, layers, strat, seed)
  in
  QCheck.make gen ~print:(fun (b, d, r, dm, l, s, seed) ->
      Printf.sprintf "batch=%d devices=%d rows=%d dim=%d layers=%d %s seed=%d"
        b d r dm l (Shard.strategy_to_string s) seed)

let prop_bit_exact_identity =
  QCheck.Test.make ~name:"bit-exact strategies match baseline bitwise"
    ~count:25 bit_exact_arb
    (fun (batch, devices, rows, dim, layers, strat, seed) ->
      let g = mlp_graph ~rows ~dim ~layers ~batch ~seed () in
      let cl = Cluster.homogeneous ~n:devices rtx in
      match Shard.plan ~strategy:strat cl g with
      | exception Invalid_argument _ -> true (* not partitionable: skip *)
      | shard -> (
        if Shard.ulp_budget shard <> 0 then
          QCheck.Test.fail_report "bit-exact strategy has nonzero ulp budget";
        match Shard.verify shard (rand_inputs ~seed:(seed + 7) g) with
        | Ok _ -> true
        | Error msg -> QCheck.Test.fail_report msg))

(* The gather really is partition-then-concat: outputs of a data-parallel
   run must equal slicing the baseline output along the batch axis. *)
let test_data_split_is_row_partition () =
  let g = mlp_graph ~batch:5 ~seed:3 () in
  let cl = Cluster.homogeneous ~n:2 rtx in
  let shard = Shard.plan ~strategy:Shard.Data cl g in
  let inputs = rand_inputs ~seed:11 g in
  let sharded = Shard.run1 shard inputs in
  (* 5 rows over 2 devices: ceil-first gives 3 + 2. *)
  Alcotest.(check string)
    "describe records the split" "data[rows 3+2 | 2x rtx3090]"
    (Shard.describe shard);
  let baseline =
    match
      Hidet_runtime.Plan.run (Shard.baseline shard)
        (List.combine (G.input_ids g) inputs)
    with
    | [ o ] -> o
    | _ -> Alcotest.fail "one output expected"
  in
  Alcotest.(check bool) "bitwise equal" true
    (compare (T.data sharded) (T.data baseline) = 0)

(* --- all-reduce epilogue (tensor-reduce) ------------------------------------ *)

(* Row-parallel tensor parallelism regroups the k-sum into per-device
   partial sums: equal within the documented ULP budget, and the budget
   must actually be positive (the strategy is not claimed bit-exact). *)
let reduce_arb =
  let gen =
    let open QCheck.Gen in
    let* batch = int_range 1 3 in
    let* m = oneofl [ 2; 3; 5 ] in
    let* k = oneofl [ 16; 32; 64 ] in
    let* n = oneofl [ 8; 16 ] in
    let* devices = int_range 2 4 in
    let* seed = int_range 0 10_000 in
    return (batch, m, k, n, devices, seed)
  in
  QCheck.make gen ~print:(fun (b, m, k, n, d, s) ->
      Printf.sprintf "matmul b=%d %dx%dx%d devices=%d seed=%d" b m k n d s)

let prop_all_reduce_ulp =
  QCheck.Test.make ~name:"all-reduce epilogue within the ULP budget" ~count:25
    reduce_arb (fun (batch, m, k, n, devices, seed) ->
      let g = G.create () in
      G.name g "qmm";
      let a = G.input g [ batch; m; k ] in
      let w = G.constant_rand g ~seed [ k; n ] in
      G.set_outputs g [ G.matmul g a w ];
      let cl = Cluster.homogeneous ~n:devices rtx in
      match Shard.plan ~strategy:(Shard.Tensor Shard.Reduce) cl g with
      | exception Invalid_argument _ -> true
      | shard -> (
        if Shard.ulp_budget shard <= 0 then
          QCheck.Test.fail_report "tensor-reduce must carry a ULP budget";
        match Shard.verify shard (rand_inputs ~seed:(seed + 13) g) with
        | Ok _ -> true
        | Error msg -> QCheck.Test.fail_report msg))

(* --- pipeline schedule conservation ----------------------------------------- *)

let pipeline_arb =
  let gen =
    let open QCheck.Gen in
    let* stages = int_range 1 4 in
    let* micros = int_range 1 6 in
    let* lat_seed = int_range 0 1_000_000 in
    return (stages, micros, lat_seed)
  in
  QCheck.make gen ~print:(fun (s, m, seed) ->
      Printf.sprintf "stages=%d micros=%d seed=%d" s m seed)

let prop_pipeline_conserves =
  QCheck.Test.make
    ~name:"pipeline schedule: every microbatch once, no device overlap"
    ~count:200 pipeline_arb (fun (stages, micros, lat_seed) ->
      let rs = Random.State.make [| lat_seed |] in
      let lat = Array.init stages (fun _ ->
          Array.init micros (fun _ -> 1e-6 +. Random.State.float rs 1e-4))
      in
      let xf = Array.init stages (fun _ ->
          Array.init micros (fun _ -> Random.State.float rs 1e-5))
      in
      let sched, makespan =
        Shard.pipeline_schedule
          ~latency:(fun ~stage ~micro -> lat.(stage).(micro))
          ~xfer:(fun ~stage ~micro -> xf.(stage).(micro))
          ~stages ~micros
      in
      (* Conservation: exactly one residence per (stage, micro). *)
      if List.length sched <> stages * micros then
        QCheck.Test.fail_report "wrong number of stage executions";
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (e : Shard.stage_exec) ->
          let key = (e.Shard.stage, e.Shard.micro) in
          if Hashtbl.mem seen key then
            QCheck.Test.fail_report "microbatch dispatched twice on a stage";
          Hashtbl.replace seen key e)
        sched;
      for s = 0 to stages - 1 do
        for m = 0 to micros - 1 do
          if not (Hashtbl.mem seen (s, m)) then
            QCheck.Test.fail_report "microbatch never dispatched"
        done
      done;
      List.iter
        (fun (e : Shard.stage_exec) ->
          (* Stage s lives on device s; residencies are well-formed. *)
          if e.Shard.device <> e.Shard.stage then
            QCheck.Test.fail_report "stage not pinned to its device";
          if not (e.Shard.finish >= e.Shard.start && e.Shard.start >= 0.) then
            QCheck.Test.fail_report "negative or inverted residency";
          (* A microbatch cannot enter a stage before the previous stage
             (plus the inter-device transfer) has produced it. *)
          if e.Shard.stage > 0 then begin
            let up = Hashtbl.find seen (e.Shard.stage - 1, e.Shard.micro) in
            if
              e.Shard.start
              < up.Shard.finish
                +. xf.(e.Shard.stage).(e.Shard.micro)
                -. 1e-15
            then QCheck.Test.fail_report "stage starts before its input"
          end)
        sched;
      (* No overlap on one device: per stage, residencies are disjoint. *)
      for s = 0 to stages - 1 do
        let on_dev =
          List.sort
            (fun (a : Shard.stage_exec) b -> compare a.Shard.start b.Shard.start)
            (List.filter (fun (e : Shard.stage_exec) -> e.Shard.stage = s) sched)
        in
        ignore
          (List.fold_left
             (fun prev (e : Shard.stage_exec) ->
               if e.Shard.start < prev -. 1e-15 then
                 QCheck.Test.fail_report "two microbatches overlap on a device";
               e.Shard.finish)
             0. on_dev)
      done;
      (* Makespan is the last finish. *)
      let max_finish =
        List.fold_left
          (fun acc (e : Shard.stage_exec) -> Float.max acc e.Shard.finish)
          0. sched
      in
      abs_float (makespan -. max_finish) < 1e-15)

(* End to end: a pipeline-sharded plan conserves requests — each batch row
   of the output comes out exactly once and equals the baseline's row. *)
let test_pipeline_end_to_end () =
  let g = mlp_graph ~batch:6 ~layers:3 ~seed:17 () in
  let cl = Cluster.homogeneous ~n:3 rtx in
  let shard =
    Shard.plan ~strategy:(Shard.Pipeline { microbatches = 3 }) cl g
  in
  Alcotest.(check int) "schedule has stages x micros residencies" 9
    (List.length (Shard.schedule shard));
  match Shard.verify shard (rand_inputs ~seed:23 g) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

(* --- per-device schedule caches --------------------------------------------- *)

let test_cache_isolation () =
  SC.clear ();
  let g = mlp_graph ~batch:4 ~seed:41 () in
  ignore (Shard.plan ~strategy:Shard.Data (Cluster.homogeneous ~n:2 rtx) g);
  let keys_r = SC.keys_for_device rtx.Device.name in
  Alcotest.(check bool) "rtx3090 tuned something" true (keys_r <> []);
  Alcotest.(check (list string)) "a100 untouched" []
    (SC.keys_for_device a100.Device.name);
  (* Homogeneous devices share one cache partition: entries = rtx keys. *)
  Alcotest.(check int) "homogeneous cluster shares entries"
    (List.length keys_r) (SC.size ());
  (* A heterogeneous cluster tunes the a100 fragments separately; the
     rtx3090 partition is reused, never overwritten or leaked into. *)
  ignore
    (Shard.plan ~strategy:Shard.Data (Cluster.of_devices [ rtx; a100 ]) g);
  let keys_r' = SC.keys_for_device rtx.Device.name in
  let keys_a = SC.keys_for_device a100.Device.name in
  Alcotest.(check bool) "a100 now has its own entries" true (keys_a <> []);
  Alcotest.(check bool) "rtx3090 entries preserved" true
    (List.for_all (fun k -> List.mem k keys_r') keys_r);
  Alcotest.(check int) "partitions are disjoint: sizes add up"
    (List.length keys_r' + List.length keys_a)
    (SC.size ())

(* --- Passes.rebatch edge cases ---------------------------------------------- *)

let shapes g = List.map (fun (n : G.node) -> n.G.shape) (G.nodes g)

let test_rebatch_edges () =
  let g1 = mlp_graph ~batch:1 ~seed:51 () in
  (* batch 1 -> 1 is the identity on shapes. *)
  Alcotest.(check (list (list int)))
    "rebatch 1 is identity" (shapes g1)
    (shapes (Passes.rebatch g1 1));
  (* Round trip through a larger batch restores every shape. *)
  Alcotest.(check (list (list int)))
    "rebatch up then down round-trips" (shapes g1)
    (shapes (Passes.rebatch (Passes.rebatch g1 6) 1));
  (* Rebatch composes: (1 -> 2 -> 6) = (1 -> 6). *)
  Alcotest.(check (list (list int)))
    "rebatch composes"
    (shapes (Passes.rebatch g1 6))
    (shapes (Passes.rebatch (Passes.rebatch g1 2) 6));
  (* A second input whose leading dim the old batch does not divide is
     rejected rather than silently mis-scaled. *)
  let bad = G.create () in
  let x = G.input bad [ 2; 8 ] in
  let y = G.input bad [ 3; 8 ] in
  G.set_outputs bad [ G.concat bad [ x; y ] ~axis:0 ];
  (match Passes.rebatch bad 4 with
  | _ -> Alcotest.fail "non-dividing leading dim must be rejected"
  | exception Invalid_argument _ -> ());
  match Passes.rebatch g1 0 with
  | _ -> Alcotest.fail "batch 0 must be rejected"
  | exception Invalid_argument _ -> ()

(* Rebatch-then-split composition: deriving a serving bucket via rebatch
   and then sharding it behaves exactly like sharding a natively-built
   graph of that batch. *)
let test_rebatch_then_split () =
  let g4 = Passes.rebatch (mlp_graph ~batch:1 ~seed:61 ()) 4 in
  let native = mlp_graph ~batch:4 ~seed:61 () in
  Alcotest.(check (list (list int)))
    "rebatched graph matches native shapes" (shapes native) (shapes g4);
  let cl = Cluster.homogeneous ~n:2 rtx in
  let shard = Shard.plan ~strategy:Shard.Data cl g4 in
  Alcotest.(check string)
    "split of the rebatched bucket" "data[rows 2+2 | 2x rtx3090]"
    (Shard.describe shard);
  match Shard.verify shard (rand_inputs ~seed:67 g4) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

(* --- Space.sample_matmul clamping regression -------------------------------- *)

let test_sample_matmul_clamps () =
  let n = Space.size () in
  let distinct cfgs =
    List.length (List.sort_uniq compare cfgs) = List.length cfgs
  in
  let full = Space.sample_matmul (Random.State.make [| 42 |]) n in
  Alcotest.(check int) "count = size returns the whole space" n
    (List.length full);
  Alcotest.(check bool) "whole space distinct" true (distinct full);
  (* Regression: count at/beyond/below the space boundary used to raise
     (Array.sub with a negative length); now it clamps. *)
  Alcotest.(check int) "count > size clamps" n
    (List.length (Space.sample_matmul (Random.State.make [| 42 |]) (n + 17)));
  Alcotest.(check int) "count 0 is empty" 0
    (List.length (Space.sample_matmul (Random.State.make [| 1 |]) 0));
  Alcotest.(check int) "negative count is empty" 0
    (List.length (Space.sample_matmul (Random.State.make [| 1 |]) (-3)));
  let near = Space.sample_matmul (Random.State.make [| 7 |]) (n - 1) in
  Alcotest.(check int) "count = size - 1" (n - 1) (List.length near);
  Alcotest.(check bool) "near-boundary draws distinct" true (distinct near);
  (* Deterministic given the state. *)
  Alcotest.(check bool) "same seed, same sample" true
    (Space.sample_matmul (Random.State.make [| 9 |]) 25
    = Space.sample_matmul (Random.State.make [| 9 |]) 25)

(* --- strategy names ---------------------------------------------------------- *)

let test_strategy_strings () =
  Alcotest.(check (list string)) "names"
    [ "data"; "tensor-gather"; "tensor-reduce"; "pipeline:4" ]
    (List.map Shard.strategy_to_string
       [
         Shard.Data;
         Shard.Tensor Shard.Gather;
         Shard.Tensor Shard.Reduce;
         Shard.Pipeline { microbatches = 4 };
       ]);
  Alcotest.(check bool) "bit-exactness per strategy" true
    (Shard.bit_exact Shard.Data
    && Shard.bit_exact (Shard.Tensor Shard.Gather)
    && (not (Shard.bit_exact (Shard.Tensor Shard.Reduce)))
    && Shard.bit_exact (Shard.Pipeline { microbatches = 4 }))

let () =
  Alcotest.run "shard"
    [
      ( "cluster",
        [
          Alcotest.test_case "collective cost model" `Quick test_cluster_costs;
          Alcotest.test_case "split sizes" `Quick test_split_sizes;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_bit_exact_identity;
          Alcotest.test_case "data split is a row partition" `Quick
            test_data_split_is_row_partition;
          QCheck_alcotest.to_alcotest prop_all_reduce_ulp;
        ] );
      ( "pipeline",
        [
          QCheck_alcotest.to_alcotest prop_pipeline_conserves;
          Alcotest.test_case "pipeline end to end" `Quick
            test_pipeline_end_to_end;
        ] );
      ( "cache",
        [
          Alcotest.test_case "per-device cache isolation" `Quick
            test_cache_isolation;
        ] );
      ( "rebatch",
        [
          Alcotest.test_case "edge cases" `Quick test_rebatch_edges;
          Alcotest.test_case "rebatch then split" `Quick
            test_rebatch_then_split;
        ] );
      ( "space",
        [
          Alcotest.test_case "sample_matmul clamps" `Quick
            test_sample_matmul_clamps;
        ] );
      ( "strategy",
        [ Alcotest.test_case "names and bit-exactness" `Quick test_strategy_strings ] );
    ]
