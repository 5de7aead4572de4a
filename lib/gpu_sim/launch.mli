(** The simulated kernel launch, shared by the compiled execution backends.

    A backend ({!Compile_exec}, {!Exec_ocaml}) turns a kernel into a thread
    entry; this module runs that entry the way a GPU runs the kernel. A
    launch is a grid of [grid_dim] blocks of [block_dim] threads. Each block
    gets fresh zeroed shared buffers and one set of warp buffers per warp of
    [Kernel.warp_size] threads; each thread gets fresh zeroed registers.
    Global buffers are the caller's arrays, mutated in place. The storage
    behind that model is allocated once per launch (once per worker domain
    on the parallel path) and zero-filled where the model starts it fresh:
    threads that run to completion one after another share one thread's
    registers and one warp's arrays.

    A kernel without [Sync_threads] runs its threads to completion one
    after another. A {!phased} kernel, whose barriers all sit at
    block-uniform points, runs one barrier interval at a time: the
    backend's block function runs every thread, in ascending tid order,
    from one barrier to the next, and each thread's frame persists across
    intervals (the CPU lowering of barriers known as thread-loop fission).
    That is exactly the order in which the reference's thread fibers run,
    so outputs, statement counts, the exception raised and global memory
    at that moment are unchanged. Any other kernel with a barrier gets no
    compiled code ({!reference}): each of its blocks runs on
    {!Interp.run_block} over the launch's thread storage, so barrier
    semantics and {!Interp.Barrier_divergence} are the reference's own.

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

(** {1 Phase analysis} *)

val has_sync : Hidet_ir.Stmt.t -> bool
(** The statement contains [Sync_threads]. *)

val phased : Hidet_ir.Kernel.t -> (Hidet_ir.Var.t -> bool) option
(** [Some uniform] when the kernel has a barrier and every [Sync_threads]
    sits only under [Seq], [Let], a [For] whose extent is block-uniform and
    an [If] whose condition is block-uniform. A block-uniform expression
    is built from constants, [Block_idx] and block-uniform variables; it
    has no [Thread_idx], no [Load], no [/] or [%] by anything but a
    non-zero constant, no bool operand to arithmetic, [Neg] or [Abs], and
    no [Select] of an int and a float. So it cannot raise and has one value
    per block, which the block may read once. The block-uniform variables
    are the [For] variables on a path to a barrier and the [Let] variables
    there whose value is block-uniform; [uniform v] says whether [v] is
    one. A variable that the IR rebinds must be uniform at every binding
    on those paths or at none, else the kernel is not phased; a per-thread
    [Let] hides an outer uniform binding of its variable from its body.
    Every template kernel is phased; [None] means the reference fallback
    ({!reference}), or no barrier. *)

(** {1 Register-tile nests}

    Task mappings lower a tile's [repeat] dimensions to [unroll] loops over
    register fragments. Both backends run such a nest as one unit; this
    analysis, stated once, says which nests qualify and what they touch. *)

type nest_kind =
  | Fma  (** [c\[..\] = x\[..\] + y\[..\] * z\[..\]] *)
  | Copy  (** [d\[..\] = s\[..\]] *)
  | Fill  (** [d\[..\] = f], [f] an int or float constant *)

type nest_dim = {
  inv : Hidet_ir.Expr.t;  (** the invariant part of the index *)
  lo : int;
  hi : int;  (** every element is in bounds when [lo <= inv < hi] *)
  stride : int;  (** of this dimension in the flat index *)
}

type nest_role = {
  buf : Hidet_ir.Buffer.t;
  base : int;  (** the flat offset of the constant invariant parts *)
  dims : nest_dim list;  (** the dimensions with a non-constant one *)
}

type nest = {
  kind : nest_kind;
  statements : int;  (** 1 per [For] execution, 1 per store *)
  roles : nest_role array;
      (** in role order, the stored buffer first ([c], [x], [y], [z] or
          [d], [s] or [d]); empty when the nest has no store *)
  deltas : int array;
      (** per store in execution order, per role: the flat offset of its
          element constants *)
  fills : float array;  (** per store: a fill's value (0 otherwise) *)
}

val nest : Hidet_ir.Stmt.t -> nest option
(** [Some] for a nest of [unroll] [For]s of constant extent at most
    [Unroll.default_threshold] (and at most 4096 stores) whose stores all
    have one {!nest_kind}, each role over one buffer, and whose indices
    are affine in the nest's variables: an invariant part built from
    [threadIdx], [blockIdx], outer variables, constants and the hoisting
    set's operators ([Add], [Sub], [Mul], [Min], [Max], [Neg], [Abs],
    [Div]/[Mod] by a non-zero constant), the same for every store of a
    role and dimension, plus a per-element constant. Only [Add], [Sub],
    [Neg] and [Mul] by a constant may combine the two parts, so the sum is
    the index's own value in OCaml's int arithmetic. A store of element
    [j] to role [r] is at [base + sum (inv * stride) + deltas.(j * R + r)]
    ([R] roles). An invariant part that is a constant is checked here: out
    of bounds, or a range no value fits, gives [None], as does any other
    statement. *)

type barriers = No_barrier | Phased | Reference

type body =
  | Thread of (float array array -> int -> int -> int)
      (** [Thread bind] (for a kernel without a barrier): [bind bufs] binds
          the code to one thread's buffer array and returns its runner;
          [run tid bid] runs thread [tid] of block [bid] over [bufs],
          indexed by {!slots}, and returns the number of statements it
          executed. *)
  | Block of (float array array array -> int -> int)
      (** [Block bind]: [bind tbufs] binds the code to a block's thread
          buffer arrays, thread [tid] over [tbufs.(tid)]; [run bid] runs
          the whole block and returns the number of statements its threads
          executed. *)
(** What a backend compiled a kernel to. A launch binds it once per thread
    storage (once per launch, or per worker domain on the parallel path),
    so a backend can allocate its per-thread state there instead of per
    thread: a runner may keep state between the threads and blocks it
    runs, and is never run by two domains at once. *)

type t = private {
  kernel : Hidet_ir.Kernel.t;
  slots : slots;
  body : body;
  barriers : barriers;
      (** [No_barrier] for a [Thread] entry, [Phased] for a backend's
          [Block] body, [Reference] for {!reference}'s *)
  parallel_ok : bool;  (** [Verify.block_disjoint_writes] holds *)
}
(** A launch handle: reusable across launches and shareable across domains
    as long as [body] is. [Compiled.run] builds one per kernel and backend
    on first launch. *)

val make : Hidet_ir.Kernel.t -> slots -> body -> t
(** [make k (slots k) body]: a [Thread] entry for a kernel without a
    barrier, a [Block] body for one that {!phased} accepts. *)

val reference : Hidet_ir.Kernel.t -> t
(** The handle of a kernel with a barrier that {!phased} refuses: no
    compiled code, each block runs on {!Interp.run_block}. Both backends'
    [compile] return it for such a kernel. *)

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
    [sim.sequential_blocks] metrics, and for a kernel with a barrier to
    [sim.phased_blocks] or [sim.reference_blocks] (these two as the
    launch starts, so a launch that raises counts in them). Records a [sim.exec]
    trace span whose [parallel] attribute, like the block counters, says
    whether the blocks ran on domains, and whose [barriers] attribute
    ([none], [phased] or [reference]) says how the barriers ran. *)

val run :
  ?workers:int ->
  (Hidet_ir.Kernel.t -> t) ->
  Hidet_ir.Kernel.t ->
  (Hidet_ir.Buffer.t * float array) list ->
  unit
(** [run compile k bindings] is [run_compiled (compile k) bindings]: a
    drop-in replacement for {!Interp.run} on a backend's [compile]. *)
