module MT = Matmul_template

let cartesian_configs () =
  let block_ms = [ 16; 32; 64; 128 ] in
  let block_ns = [ 16; 32; 64; 128 ] in
  let block_ks = [ 8; 16; 32 ] in
  let warp_fracs = [ 1; 2 ] in
  (* warp tile = block tile / frac *)
  let stage_opts = [ 1; 2 ] in
  let bools = [ false; true ] in
  List.concat_map
    (fun block_m ->
      List.concat_map
        (fun block_n ->
          List.concat_map
            (fun block_k ->
              List.concat_map
                (fun fm ->
                  List.concat_map
                    (fun fn ->
                      List.concat_map
                        (fun stages ->
                          List.map
                            (fun use_tensor_core ->
                              {
                                MT.block_m;
                                block_n;
                                block_k;
                                warp_m = block_m / fm;
                                warp_n = block_n / fn;
                                stages;
                                split_k = 1;
                                use_tensor_core;
                                swizzle = false;
                              })
                            bools)
                        stage_opts)
                    warp_fracs)
                warp_fracs)
            block_ks)
        block_ns)
    block_ms

(* Canonical dedup: configs are plain scalar records, so structural equality
   is exactly config identity. First occurrence wins, order preserved — the
   schedule cache stores winner *indices*, so enumeration order is part of
   the contract. *)
let dedup configs =
  let seen = Hashtbl.create 512 in
  List.filter
    (fun (c : MT.config) ->
      if Hashtbl.mem seen c then false
      else begin
        Hashtbl.add seen c ();
        true
      end)
    configs

(* Curation: drop degenerate aspect ratios and register-starved tiles so the
   base space stays near the paper's ~180 entries while covering the useful
   corners. *)
let keep (c : MT.config) =
  let aspect = max (c.MT.block_m / c.MT.block_n) (c.MT.block_n / c.MT.block_m) in
  let threads = MT.block_dim c in
  aspect <= 4 && (min c.MT.block_m c.MT.block_n > 16 || aspect <= 2)
  && threads >= 32 && threads <= 256
  && c.MT.block_m * c.MT.block_k >= threads
  && c.MT.block_k * c.MT.block_n >= threads
  &&
  if c.MT.use_tensor_core then c.MT.block_k = 16 && c.MT.block_m >= 32
  else c.MT.warp_m * c.MT.warp_n >= 512 && c.MT.block_k <= 16

(* The widened dimensions (branch-and-bound keeps them exact to search):

   - deep pipelines: 3- and 4-stage circular-buffer variants of the larger
     double-buffered tiles, where the extra shared-memory stage can pay for
     itself (feasibility on a concrete device is judged by the perf model's
     occupancy limits, not here);
   - thread-block swizzle: an L2-locality remap of the launch order for
     every pipelined tile big enough to have operand panels worth sharing
     ({!Hidet_gpu.Traffic.block_reuse} makes these distinguishable). *)
let widen base =
  let deep =
    List.concat_map
      (fun (c : MT.config) ->
        if c.MT.stages = 2 && c.MT.block_m >= 64 && c.MT.block_n >= 64 then
          [ { c with MT.stages = 3 }; { c with MT.stages = 4 } ]
        else [])
      base
  in
  let with_deep = base @ deep in
  let swizzled =
    List.filter_map
      (fun (c : MT.config) ->
        if c.MT.stages >= 2 && c.MT.block_m >= 32 && c.MT.block_n >= 32 then
          Some { c with MT.swizzle = true }
        else None)
      with_deep
  in
  with_deep @ swizzled

(* Split-k is a first-class dimension of the shape-aware space: factors are
   chosen by how far the m x n tile grid is from saturating the device, and
   applied across tile sizes and pipeline depths (not just the small-tile
   double-buffered corner). The latency model charges the partial-sum
   traffic and the reduction epilogue through the second kernel the
   template emits, so these variants compete on modeled cost like any
   other config. The space depends on the problem size only through the
   factor class: 0 has no factors, 1 has [2; 4] and 2 has [2; 4; 8]. *)
let split_k_class ~m ~n =
  let tiles64 = (m + 63) / 64 * ((n + 63) / 64) in
  if tiles64 >= 256 then 0 else if tiles64 >= 64 then 1 else 2

(* Swizzle targets big grids; split-k targets small ones — combining them
   would only pad the space. *)
let split_k_variants base sk =
  List.filter_map
    (fun (c : MT.config) ->
      if c.MT.stages >= 2 && not c.MT.swizzle then Some { c with MT.split_k = sk }
      else None)
    base

(* The space of each factor class. Class 2 extends class 1, since
   [dedup (dedup a @ b) = dedup (a @ b)], so the two share their factor-2
   and factor-4 configs. *)
let build () =
  let base =
    dedup
      (widen
         (List.filter
            (fun c -> keep c && Result.is_ok (MT.check c))
            (cartesian_configs ())))
  in
  let extend space sks = dedup (space @ List.concat_map (split_k_variants base) sks) in
  let sk24 = extend base [ 2; 4 ] in
  [| base; sk24; extend sk24 [ 8 ] |]

(* Lazily constructed and memoized: subcommands that never tune (trace
   checking, export, log inspection) must not pay for enumerating and
   checking the widened space at module initialization. The memo is
   domain-safe: [Lazy.force] from two domains at once raises
   [Lazy.Undefined] (OCaml 5 lazies are not thread-safe), and tuner workers
   plus concurrently compiling engines can both be the first caller. The
   spaces are published through an [Atomic] (read without locking on the
   hot path) and built at most once under a mutex (double-checked). *)
let memo : MT.config list array option Atomic.t = Atomic.make None
let memo_lock = Mutex.create ()

let spaces () =
  match Atomic.get memo with
  | Some spaces -> spaces
  | None ->
    Mutex.lock memo_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock memo_lock)
      (fun () ->
        match Atomic.get memo with
        | Some spaces -> spaces
        | None ->
          let spaces = build () in
          Atomic.set memo (Some spaces);
          spaces)

let matmul () = (spaces ()).(0)
let matmul_with_split_k ~m ~n = (spaces ()).(split_k_class ~m ~n)

let size () = List.length (matmul ())

let sample_matmul rs count =
  let all = Array.of_list (matmul ()) in
  let n = Array.length all in
  let count = max 0 (min count n) in
  if count = n then Array.to_list all
  else begin
    (* Partial Fisher–Yates over a copy: [count] distinct draws, order
       determined entirely by [rs], so the same seed yields the same
       configs on every run. *)
    let a = Array.copy all in
    for i = 0 to count - 1 do
      let j = i + Random.State.int rs (n - i) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.to_list (Array.sub a 0 count)
  end
