open Hidet_ir
module Metrics = Hidet_obs.Metrics
module Trace = Hidet_obs.Trace

type slots = {
  slot_of : (int, int) Hashtbl.t;
  nbufs : int;
  global_slots : (int * Buffer.t) array;
  shared_slots : (int * Buffer.t) array;
  warp_slots : (int * Buffer.t) array;
  reg_slots : (int * Buffer.t) array;
}

let slots (k : Kernel.t) =
  let slot_of = Hashtbl.create 16 in
  let next = ref 0 in
  let assign bufs =
    Array.of_list
      (List.map
         (fun (b : Buffer.t) ->
           let s = !next in
           incr next;
           Hashtbl.replace slot_of b.Buffer.id s;
           (s, b))
         bufs)
  in
  let global_slots = assign k.params in
  let shared_slots = assign k.shared in
  let warp_slots = assign k.warp_bufs in
  let reg_slots = assign k.regs in
  { slot_of; nbufs = !next; global_slots; shared_slots; warp_slots; reg_slots }

type t = {
  kernel : Kernel.t;
  slots : slots;
  entry : Exec_registry.entry;
  has_sync : bool;
  parallel_ok : bool;
}

let make (k : Kernel.t) slots entry =
  {
    kernel = k;
    slots;
    entry;
    has_sync =
      Stmt.count (function Stmt.Sync_threads -> true | _ -> false) k.body > 0;
    parallel_ok = Verify.block_disjoint_writes k;
  }

let m_threads = Metrics.counter "sim.threads"
let m_stmts = Metrics.counter "sim.statements"
let m_exec_us = Metrics.counter "sim.exec_us"
let m_par_blocks = Metrics.counter "sim.parallel_blocks"
let m_seq_blocks = Metrics.counter "sim.sequential_blocks"

let zeroed (_, b) = Array.make (Buffer.num_elems b) 0.

(* Run one block; returns the number of statements its threads executed.
   [proto] holds the global arrays at their slots. Shared arrays are fresh
   per block, a warp's threads share its warp arrays, and register arrays
   are fresh per thread. With a barrier, thread fibers start in ascending
   tid order and advance phase by phase, exactly like the reference. *)
let exec_block (c : t) (proto : float array array) bid : int =
  let k = c.kernel in
  let bufs_block = Array.copy proto in
  Array.iter (fun ((s, _) as sb) -> bufs_block.(s) <- zeroed sb) c.slots.shared_slots;
  let warp_storage =
    Array.init (Kernel.num_warps_per_block k) (fun _ ->
        Array.map zeroed c.slots.warp_slots)
  in
  let thread_bufs tid =
    let bufs = Array.copy bufs_block in
    let ws = warp_storage.(tid / Kernel.warp_size) in
    Array.iteri (fun i (s, _) -> bufs.(s) <- ws.(i)) c.slots.warp_slots;
    Array.iter (fun ((s, _) as sb) -> bufs.(s) <- zeroed sb) c.slots.reg_slots;
    bufs
  in
  if not c.has_sync then begin
    let total = ref 0 in
    for tid = 0 to k.block_dim - 1 do
      total := !total + c.entry tid bid (thread_bufs tid)
    done;
    !total
  end
  else begin
    let counts = Array.make k.block_dim 0 in
    let bufs = Array.init k.block_dim thread_bufs in
    let statuses =
      Array.init k.block_dim (fun tid ->
          Interp.start_thread (fun () ->
              counts.(tid) <- c.entry tid bid bufs.(tid)))
    in
    Interp.barrier_loop ~kernel_name:k.name ~bid statuses;
    Array.fold_left ( + ) 0 counts
  end

let run_compiled ?workers (c : t) bindings =
  let k = c.kernel in
  Interp.check_bindings k bindings;
  let proto = Array.make (max 1 c.slots.nbufs) [||] in
  Array.iter
    (fun (s, (b : Buffer.t)) ->
      match List.find_opt (fun (p, _) -> Buffer.equal p b) bindings with
      | Some (_, arr) -> proto.(s) <- arr
      | None -> assert false (* every parameter is bound: check_bindings *))
    c.slots.global_slots;
  (* What runs, not what was asked for: without [workers], the default
     worker count decides, and on a host where it is 1 the blocks run
     sequentially here. *)
  let workers =
    match workers with
    | Some w -> w
    | None -> Hidet_parallel.Parallel.default_workers ()
  in
  let use_domains = workers > 1 && c.parallel_ok && k.grid_dim > 1 in
  let t0 = Unix.gettimeofday () in
  let counts =
    Trace.span
      ~attrs:(fun () ->
        [
          ("kernel", k.name);
          ("parallel", string_of_bool use_domains);
          ("grid_dim", string_of_int k.grid_dim);
        ])
      "sim.exec"
      (fun _ ->
        if use_domains then
          Hidet_parallel.Parallel.map ~workers
            (fun bid -> exec_block c proto bid)
            (Array.init k.grid_dim Fun.id)
        else begin
          let counts = Array.make k.grid_dim 0 in
          for bid = 0 to k.grid_dim - 1 do
            counts.(bid) <- exec_block c proto bid
          done;
          counts
        end)
  in
  Metrics.add m_exec_us (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  Metrics.add m_threads (Kernel.num_threads k);
  Metrics.add m_stmts (Array.fold_left ( + ) 0 counts);
  Metrics.add (if use_domains then m_par_blocks else m_seq_blocks) k.grid_dim

let run ?workers compile k bindings = run_compiled ?workers (compile k) bindings
