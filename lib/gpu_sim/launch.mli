(** The simulated kernel launch, shared by the compiled execution backends.

    A backend ({!Compile_exec}, {!Exec_ocaml}) turns a kernel into a thread
    entry; this module runs that entry the way a GPU runs the kernel. A
    launch is a grid of [grid_dim] blocks of [block_dim] threads. Each block
    gets fresh zeroed shared buffers and one set of warp buffers per warp of
    [Kernel.warp_size] threads; each thread gets fresh zeroed registers.
    Global buffers are the caller's arrays, mutated in place.

    A kernel with [Sync_threads] runs each block's threads as fibers on
    {!Interp.start_thread}/{!Interp.barrier_loop}, so barrier semantics and
    {!Interp.Barrier_divergence} match the reference interpreter. A kernel
    without one runs its threads to completion one after another: no barrier
    can be reached, so a fiber would change nothing but the cost.

    Blocks run on concurrent domains when the verifier proves they write
    disjoint global memory ({!Hidet_ir.Verify.block_disjoint_writes});
    otherwise, or with [~workers:1], they run in ascending order, exactly
    like {!Interp.run}. *)

type slots = private {
  slot_of : (int, int) Hashtbl.t;  (** [Buffer.id] -> slot *)
  nbufs : int;
  global_slots : (int * Hidet_ir.Buffer.t) array;
  shared_slots : (int * Hidet_ir.Buffer.t) array;
  warp_slots : (int * Hidet_ir.Buffer.t) array;
  reg_slots : (int * Hidet_ir.Buffer.t) array;
}
(** Where each buffer sits in a thread's [float array array]: the kernel's
    parameters, shared, warp and register buffers, numbered in that order
    from one counter. *)

val slots : Hidet_ir.Kernel.t -> slots

type t = private {
  kernel : Hidet_ir.Kernel.t;
  slots : slots;
  entry : Exec_registry.entry;
  has_sync : bool;  (** the body contains [Sync_threads] *)
  parallel_ok : bool;  (** [Verify.block_disjoint_writes] holds *)
}
(** A launch handle: reusable across launches and shareable across domains
    as long as [entry] is. [Compiled.run] builds one per kernel and backend
    on first launch. *)

val make : Hidet_ir.Kernel.t -> slots -> Exec_registry.entry -> t
(** [make k (slots k) entry]: [entry tid bid bufs] runs thread [tid] of
    block [bid] over [bufs], indexed by [slots k], and returns the number
    of statements it executed. *)

val run_compiled :
  ?workers:int -> t -> (Hidet_ir.Buffer.t * float array) list -> unit
(** Launch the grid. [bindings] follow the {!Interp.run} contract (one
    array per parameter, mutated in place) and failures raise the same
    exceptions with the same messages. When [parallel_ok] holds and the
    grid has more than one block, blocks run on [workers] domains through
    [Hidet_parallel.Parallel.map] (default
    {!Hidet_parallel.Parallel.default_workers}); with one worker, given or
    by default, they run sequentially. Adds to the [sim.threads],
    [sim.statements], [sim.exec_us] and [sim.parallel_blocks] or
    [sim.sequential_blocks] metrics and records a [sim.exec] trace span
    whose [parallel] attribute, like the block counters, says whether the
    blocks ran on domains. *)

val run :
  ?workers:int ->
  (Hidet_ir.Kernel.t -> t) ->
  Hidet_ir.Kernel.t ->
  (Hidet_ir.Buffer.t * float array) list ->
  unit
(** [run compile k bindings] is [run_compiled (compile k) bindings]: a
    drop-in replacement for {!Interp.run} on a backend's [compile]. *)
