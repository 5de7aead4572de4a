(** Graph-level optimization passes (step 2 of the paper's Fig. 10) and the
    fusion partitioning that feeds post-scheduling fusion. *)

val constant_fold : Graph.t -> Graph.t
(** Evaluate operators whose inputs are all constants (lazily — weights are
    only materialized if someone forces them). Typical win: reshaping or
    transposing weight tensors at compile time (e.g. OIHW conv weights to
    the [oc, c*k*k] matrix of implicit-GEMM). *)

val dead_code_elim : Graph.t -> Graph.t
(** Drop nodes not reachable from the outputs. *)

val optimize : Graph.t -> Graph.t
(** [constant_fold] then [dead_code_elim]. *)

val lower_conv_to_gemm : Graph.t -> Graph.t
(** Rewrite every [Conv2d] as
    [reshape(matmul(reshape(w), im2col(x)))] — implicit-GEMM convolution
    (paper §5.2). The weight reshape constant-folds away; the [im2col] and
    output [reshape] fuse into the scheduled matmul. Depthwise convolutions
    are untouched. *)

(** A fusion group: one anchor plus the injective prologues and bijective
    epilogues absorbed around it (paper §5.2 step 1). Anchor-less groups
    (a leftover injective chain) use the chain head as [anchor]. *)
type group = {
  anchor : int;
  prologues : int list;  (** absorbed producer ids, topological order *)
  epilogues : int list;  (** absorbed consumer chain, in application order *)
  output : int;  (** final node of the group *)
}

val partition : Graph.t -> group list
(** Partition all non-[Input]/[Constant] nodes into fusion groups, in
    topological order of their outputs. Absorption rules:
    - a producer is absorbed as prologue if it is injective and the group is
      its only consumer;
    - a consumer is absorbed as epilogue if it is bijective, consumes the
      group output as its first operand, and is that output's only consumer.
    Every node belongs to exactly one group. *)

(** A subgraph carved out of a larger graph, with Input stubs standing in
    for values produced outside it. *)
type extraction = {
  sub : Graph.t;  (** the standalone subgraph *)
  feeds : int list;
      (** original-graph node ids whose values must be bound, in order, to
          [sub]'s inputs at run time *)
  yields : int list;
      (** original-graph node ids that [sub]'s outputs (same order)
          correspond to *)
}

val extract : Graph.t -> nodes:int list -> outputs:int list -> extraction
(** [extract g ~nodes ~outputs] rebuilds the compute nodes [nodes] (ids
    in [g]) as a standalone graph. Member operands produced outside the
    member set — graph inputs or non-member compute nodes — become Input
    stubs recorded in [feeds]; constants are recreated inside the
    extraction, sharing their lazy thunks with [g]. [outputs] (ids in
    [g], all members) become the extraction's outputs. The shard
    planner's pipeline-staging and tensor-parallel partition passes are
    built on this. Raises [Invalid_argument] when a member or output id
    is not a compute node of [g]. *)

val rebatch : Graph.t -> int -> Graph.t
(** [rebatch g b] rebuilds [g] with its leading (batch) dimension rebound
    to [b]: every input's leading dim — and every [Reshape] target's
    leading dim — is scaled by [b / old_batch] (old batch = the first
    input's leading dim, which must divide the dims it scales); all other
    shapes are re-inferred. Constants are shared with [g], thunks
    included. The serving registry uses this to derive batch-bucket plan
    variants from HGF files. Raises [Invalid_argument] when a leading dim
    does not scale or the result fails shape inference. *)
