(** Lowering of kernels to CUDA C source text.

    This is the final lowering stage of the paper's pipeline (step 5 in its
    Fig. 10). In this reproduction the emitted source is an inspectable
    artifact — execution happens on the {!Hidet_gpu} simulator — but the
    generated code is complete, compilable-style CUDA C: launch bounds,
    __shared__ declarations, flattened global indexing, unroll pragmas,
    predicated accesses and an mma.sync-style intrinsic call for tensor-core
    tiles. *)

val kernel : Kernel.t -> string
(** Full [__global__] function definition. Buffers and variables are named
    per kernel in binding order (name hint plus a number), never by their
    process-global ids, so instantiating one config twice prints the same
    text. *)

val program : Kernel.t list -> string
(** A translation unit: header comment, helpers, then all kernels. *)
