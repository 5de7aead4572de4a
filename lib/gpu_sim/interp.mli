(** Functional interpreter for IR kernels.

    Executes a kernel exactly as a GPU would, block by block: every block
    runs its threads as cooperative fibers (OCaml 5 effects) that advance in
    lockstep between [__syncthreads] barriers, with per-scope memory (global,
    shared per block, warp-distributed, per-thread registers). MMA statements
    execute once per warp. The fibers are this module's own: the compiled
    backends run a kernel whose barriers {!Launch.phased} refuses on
    {!run_block}, and run no fibers of their own.

    This engine is for correctness (small shapes); latency comes from
    {!Perf_model}. *)

exception Barrier_divergence of string
(** Raised when some threads of a block reach a barrier while others have
    already exited — undefined behaviour on real hardware. *)

exception Invalid_access of string
(** Out-of-bounds or wrong-scope access detected during execution. *)

val run : Hidet_ir.Kernel.t -> (Hidet_ir.Buffer.t * float array) list -> unit
(** [run kernel bindings] executes the kernel. [bindings] must provide one
    array per kernel parameter, each of length [Buffer.num_elems]; output
    arrays are mutated in place. Raises [Invalid_argument] on missing or
    mis-sized bindings. *)

val exec :
  thread_idx:int ->
  block_idx:int ->
  lookup:(Hidet_ir.Var.t -> Hidet_ir.Expr.value) ->
  locate:(Hidet_ir.Buffer.t -> float array) ->
  Hidet_ir.Stmt.t ->
  int
(** [exec ~thread_idx ~block_idx ~lookup ~locate s] runs the statement [s]
    of one thread exactly as {!run} runs it, with [lookup] giving the
    variables bound outside [s] and [locate] each buffer's array, and
    returns the statements it ran (every statement but [Seq] counts one,
    as in the compiled backends). A compiled backend that cannot run part
    of a kernel its own way runs it here, so its errors are the
    reference's by construction. *)

(** {1 Shared with {!Launch}}

    {!Launch} runs the compiled backends. It shares these pieces rather
    than reimplementing them, which keeps [Barrier_divergence] and binding
    errors bit-identical across all backends. *)

val run_block :
  Hidet_ir.Kernel.t -> locate:(int -> Hidet_ir.Buffer.t -> float array) -> int -> int
(** [run_block k ~locate bid] runs block [bid] exactly as {!run} runs it,
    thread [tid] over [locate tid] (its global, shared, warp and register
    arrays, fresh as {!run}'s), and returns the statements its threads ran.
    {!Launch} runs a kernel with a barrier that {!Launch.phased} refuses
    this way, block by block, over its own thread storage. *)

val check_bindings :
  Hidet_ir.Kernel.t -> (Hidet_ir.Buffer.t * float array) list -> unit
(** Validate launch bindings (sizes, presence of every parameter); raises
    [Invalid_argument] with the same messages {!run} uses. *)
