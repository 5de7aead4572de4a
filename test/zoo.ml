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

let matmuls dev models =
  let module Cache = Hidet_sched.Schedule_cache in
  Cache.clear ();
  List.iter
    (fun (_, mk) -> ignore (Hidet.Hidet_engine.compile_plan dev (mk ())))
    models;
  let keys = Cache.keys_for_device dev.Hidet_gpu.Device.name in
  Cache.clear ();
  List.filter_map
    (fun key ->
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
      | _ -> None)
    keys
