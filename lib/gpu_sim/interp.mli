(** Functional interpreter for IR kernels.

    Executes a kernel exactly as a GPU would, block by block: every block
    runs its threads as cooperative fibers (OCaml 5 effects) that advance in
    lockstep between [__syncthreads] barriers, with per-scope memory (global,
    shared per block, warp-distributed, per-thread registers). MMA statements
    execute once per warp.

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

(** {1 Shared execution machinery}

    The pieces below are the barrier and launch-validation substrate reused
    by {!Launch}, which runs the compiled backends. Sharing them (rather
    than reimplementing) is what keeps [Barrier_divergence] and binding
    errors bit-identical across all backends. *)

type _ Effect.t += Sync : unit Effect.t
(** Performed by a thread fiber reaching [__syncthreads]. *)

type status = Finished | Blocked of (unit, status) Effect.Deep.continuation
(** State of one thread fiber between barrier phases. *)

val start_thread : (unit -> unit) -> status
(** Run a thread body as a fiber until it finishes or performs {!Sync}. *)

val barrier_loop : kernel_name:string -> bid:int -> status array -> unit
(** Advance all blocked fibers phase by phase; raises {!Barrier_divergence}
    if some threads finished while others wait at a barrier. *)

val check_bindings :
  Hidet_ir.Kernel.t -> (Hidet_ir.Buffer.t * float array) list -> unit
(** Validate launch bindings (sizes, presence of every parameter); raises
    [Invalid_argument] with the same messages {!run} uses. *)
