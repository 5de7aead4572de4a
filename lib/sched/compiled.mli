(** A compiled operator: one or more kernels plus its I/O buffers.

    Most operators compile to a single kernel; split-k matrix multiplication
    compiles to a partial-product kernel followed by a reduction kernel. *)

type t = {
  name : string;
  kernels : Hidet_ir.Kernel.t list;  (** in launch order *)
  ins : Hidet_ir.Buffer.t list;  (** bind input tensors to these *)
  out : Hidet_ir.Buffer.t;  (** final output *)
  temps : Hidet_ir.Buffer.t list;  (** intermediate global buffers *)
}

(** {1 Execution backend}

    Which simulator executes {!run}'s kernels. [`Closure] is
    {!Hidet_gpu.Compile_exec}; [`Native] is {!Hidet_gpu.Exec_ocaml}
    (codegen → [ocamlopt] → [Dynlink]) and degrades to the closure backend
    when the toolchain is unavailable: the reason goes to stderr once per
    process and every kernel launch that falls back bumps
    ["sim.native.fallbacks"]. All backends produce bit-identical results. *)

type backend = [ `Closure | `Native ]

val latency :
  ?fidelity:Hidet_gpu.Perf_model.fidelity -> Hidet_gpu.Device.t -> t -> float
(** Sum of per-kernel estimates (each includes launch overhead); [infinity]
    if any kernel is infeasible. [?fidelity] (default [`Analytic]) picks
    {!Hidet_gpu.Perf_model.kernel} or {!Hidet_cycle.Fidelity.estimate}. *)

val feasible : Hidet_gpu.Device.t -> t -> bool

val run :
  ?legacy:bool ->
  ?backend:backend ->
  t ->
  Hidet_tensor.Tensor.t list ->
  Hidet_tensor.Tensor.t
(** Execute on the simulator. Input tensors are bound to [ins]
    positionally (matched by element count — layouts are row-major on both
    sides, so ranks may differ, e.g. a [m,k] tensor binding a [1,m,k]
    buffer). Returns the output with the buffer's shape.

    Kernels run on [?backend] (default [`Closure], the closure-compiling
    {!Hidet_gpu.Compile_exec}); [~legacy:true] forces the
    reference tree-walking interpreter ({!Hidet_gpu.Interp}) regardless —
    same results bit for bit, an order of magnitude slower.

    A kernel is verified and compiled on its first launch on a backend; the
    executable (its launch handle) stays with the kernel value, so every
    later launch of it, from any plan and any domain, runs it directly. *)

val verify : t -> unit
(** Verifies every kernel; raises [Failure] on the first invalid one. *)

val cuda_source : t -> string
