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
