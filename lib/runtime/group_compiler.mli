(** Shared machinery for compiling fusion groups into plan steps.

    Every engine — Hidet and the baselines — compiles a partitioned graph
    the same way: schedule the anchor, then fuse as many surrounding
    operators as the engine's capability allows; whatever cannot (or may
    not) be fused runs as a standalone rule-based kernel. Engines differ in
    [schedule_anchor] (which template/space/tuner) and in the fusion
    predicates (kernel libraries fuse little; compilers fuse everything). *)

type config = {
  schedule_anchor :
    Hidet_graph.Graph.t -> Hidet_graph.Graph.node -> Hidet_sched.Compiled.t;
  may_fuse_prologue : Hidet_graph.Graph.node -> bool;
  may_fuse_epilogue : Hidet_graph.Graph.node -> bool;
}

val compile_graph : config -> Hidet_graph.Graph.t -> Plan.t
(** Partition (assumes the graph is already optimized) and compile every
    group into steps in execution order, the last step of a group producing
    its output. Prologue/epilogue fusions that fail structurally
    (rank-incompatible shapes) or are disallowed by the predicates become
    standalone rule-based steps.

    [schedule_anchor] is called once per group, in order. Within one call,
    a group whose signature equals an earlier group's (members' ops, shapes
    and inputs, external inputs' shapes and the predicates' verdicts, all
    with node ids relabeled by rank) reuses that group's steps, mapped to
    its own ids, instead of fusing again, but only when [schedule_anchor]
    returned the physically same ([==]) {!Hidet_sched.Compiled.t} for both.
    So an engine gets the reuse only by returning one shared kernel for
    equal anchors. The predicates are also asked while the signature is
    built, so they must be pure; every engine here decides from a node's
    op and shape alone, which is what lets repeated layers match. A reused
    group counts
    in ["fusion.group_reuses"] and adds the same fusion counters its
    builder did; its [compile_group] and [fuse] spans still open. A group
    with no prologue and no epilogue has nothing to fuse: its one step is
    the anchor kernel on the anchor's inputs, built without a signature,
    and it never counts as a reuse. *)

(** {1 The anchor cases every engine shares} *)

type matmul = {
  batch : int;
  a_batched : bool;
  b_batched : bool;
  m : int;
  n : int;
  k : int;
}
(** A matmul anchor's operands: [A] is [[m; k]] or [[batch; m; k]], [B] is
    [[k; n]] or [[batch; k; n]]. *)

val rows_cols : int list -> int * int
(** A row operator's shape as (rows, columns): the last dimension is the
    row. *)

val fit_anchor :
  Hidet_graph.Graph.node -> matmul -> Hidet_sched.Compiled.t -> Hidet_sched.Compiled.t
(** The matmul templates emit [[batch; m; n]]: a kernel with output
    [[1; m; n]] for a rank-2 anchor gets a fused reshape to [[m; n]];
    any other kernel is returned as it is. *)

val schedule_anchor :
  matmul:
    (Hidet_graph.Graph.node ->
    int list list ->
    matmul ->
    Hidet_sched.Compiled.t option) ->
  own:
    (Hidet_graph.Graph.node -> int list list -> Hidet_sched.Compiled.t option) ->
  Hidet_graph.Graph.t ->
  Hidet_graph.Graph.node ->
  Hidet_sched.Compiled.t
(** An engine's [config.schedule_anchor] from its own arms. A matmul
    anchor goes to [matmul] with its input shapes and parsed operands and
    then through {!fit_anchor}. Any other anchor goes to [own] first.
    Where an arm answers [None], the shared arms decide: untuned
    {!Hidet_sched.Row_templates} for softmax and layernorm,
    {!Hidet_sched.Reduce_template} for global pooling, and
    {!Hidet_sched.Rule_based} for everything else, a matmul included. *)
