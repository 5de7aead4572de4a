(** Kernel-library inference engines: the PyTorch-like, ONNX-Runtime-like
    and TensorRT-like baselines of the paper's evaluation.

    All three dispatch to a small set of fixed, hand-tuned kernels in the
    style of cuBLAS/cuDNN: implicit-GEMM convolution and matmul kernels
    with double buffering and tensor cores, chosen by a size heuristic
    {e without} per-input-size tuning (tuning cost is zero). They differ in
    fusion capability:

    - {b PyTorch-like} (eager): no cross-operator fusion — every graph node
      is its own kernel launch (conv still fuses its internal im2col/reshape,
      as cuDNN's implicit GEMM does);
    - {b ORT-like}: pattern fusion of (Conv|Matmul) + bias/BN + activation
      epilogues, like ONNX Runtime's fusion transformers;
    - {b TensorRT-like}: full prologue/epilogue fusion plus a dedicated
      fused multi-head-attention kernel for transformer blocks (modeled
      analytically — TensorRT is closed-source; see DESIGN.md §3),
      credited on the compiled plan in a [fused_attention] span whose
      [latency_us] is the reported latency. *)

val pick_matmul :
  ?tensor_core:bool ->
  m:int ->
  n:int ->
  k:int ->
  unit ->
  Hidet_sched.Matmul_template.config
(** The library's size heuristic over its fixed kernel list. *)

val fused_attention_latency :
  Hidet_gpu.Device.t -> heads:int -> seq:int -> dim:int -> float
(** Latency of one fused softmax(Q K^T / sqrt d) V kernel over
    [heads, seq, dim] tensors: roofline over flops and un-materialized
    score traffic, plus launch overhead. *)

module Pytorch : Hidet_runtime.Engine.S
module Ort : Hidet_runtime.Engine.S
module Tensorrt : Hidet_runtime.Engine.S
