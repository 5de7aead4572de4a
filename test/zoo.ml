(* The matmuls the engine tunes when it compiles models cold, read back
   from the schedule cache's keys (the cache is left empty). *)

type matmul = {
  batch : int;
  a_batched : bool;
  b_batched : bool;
  m : int;
  n : int;
  k : int;
}

let parse key =
  match String.split_on_char '_' key with
  | [ "matmul"; batch; a_b; b_b; m; n; k; _; _ ] ->
    Some
      {
        batch = int_of_string batch;
        a_batched = bool_of_string a_b;
        b_batched = bool_of_string b_b;
        m = int_of_string m;
        n = int_of_string n;
        k = int_of_string k;
      }
  | _ -> None

(* The distinct matmuls of one cold compile of every model, in key order. *)
let matmuls dev models =
  let module Cache = Hidet_sched.Schedule_cache in
  Cache.clear ();
  List.iter
    (fun (_, mk) -> ignore (Hidet.Hidet_engine.compile_plan dev (mk ())))
    models;
  let keys = Cache.keys_for_device dev.Hidet_gpu.Device.name in
  Cache.clear ();
  List.filter_map parse keys

(* What a cold compile pass tunes: each model compiled on an empty cache,
   its matmuls in key order, so a shape two models share comes twice. *)
let cold_pass dev models = List.concat_map (fun model -> matmuls dev [ model ]) models

(* Every kernel of each model's plan, in plan order: a kernel that several
   steps launch comes once per step. The models are compiled in turn on
   one cache, cleared before and after. *)
let plan_kernels dev models =
  let module Cache = Hidet_sched.Schedule_cache in
  Cache.clear ();
  let kernels =
    List.concat_map
      (fun (_, mk) ->
        let plan, _ = Hidet.Hidet_engine.compile_plan dev (mk ()) in
        List.concat_map
          (fun (s : Hidet_runtime.Plan.step) -> s.compiled.Hidet_sched.Compiled.kernels)
          plan.Hidet_runtime.Plan.steps)
      models
  in
  Cache.clear ();
  kernels

(* The physically distinct kernels of a list, in first-occurrence order. *)
let distinct kernels =
  List.rev
    (List.fold_left
       (fun acc k -> if List.memq k acc then acc else k :: acc)
       [] kernels)

(* Mints [n] variable and [n] buffer ids that no kernel uses, so a compile
   after it numbers everything differently. *)
let mint_ids n =
  for _ = 1 to n do
    ignore (Hidet_ir.Var.fresh "pad");
    ignore (Hidet_ir.Buffer.create "pad" [ 1 ])
  done

let engines : (module Hidet_runtime.Engine.S) list =
  [
    (module Hidet.Hidet_engine);
    (module Hidet_baselines.Library_engine.Pytorch);
    (module Hidet_baselines.Library_engine.Ort);
    (module Hidet_baselines.Library_engine.Tensorrt);
    (module Hidet_baselines.Input_centric.Autotvm);
    (module Hidet_baselines.Input_centric.Ansor);
  ]

(* Every kernel of every engine's plan for every tiny model, in plan order,
   each model compiled on an empty schedule cache. *)
let tiny_engine_kernels dev =
  let module Cache = Hidet_sched.Schedule_cache in
  let kernels =
    List.concat_map
      (fun (module Eng : Hidet_runtime.Engine.S) ->
        List.concat_map
          (fun (_, mk) ->
            Cache.clear ();
            let r = Eng.compile dev (mk ()) in
            List.concat_map
              (fun (s : Hidet_runtime.Plan.step) ->
                s.compiled.Hidet_sched.Compiled.kernels)
              r.Hidet_runtime.Engine.plan.Hidet_runtime.Plan.steps)
          Hidet_models.Models.tiny_all)
      engines
  in
  Cache.clear ();
  kernels

(* [kernels ()] twice, with [ids] fresh variable and buffer ids minted in
   between; fails unless the two lists are equally long and share no
   buffer id. *)
let twice ?(ids = 10_000) kernels =
  let first = kernels () in
  mint_ids ids;
  let second = kernels () in
  let buffer_ids ks =
    List.concat_map
      (fun (k : Hidet_ir.Kernel.t) ->
        List.map
          (fun (b : Hidet_ir.Buffer.t) -> b.Hidet_ir.Buffer.id)
          (k.params @ k.shared @ k.warp_bufs @ k.regs))
      ks
  in
  let old = Hashtbl.create 1024 in
  List.iter (fun id -> Hashtbl.replace old id ()) (buffer_ids first);
  if List.length first <> List.length second then
    failwith "Zoo.twice: the two compiles give different kernel counts";
  if List.exists (Hashtbl.mem old) (buffer_ids second) then
    failwith "Zoo.twice: the second compile reuses a buffer of the first";
  (first, second)
