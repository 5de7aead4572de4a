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
    builder did; its [compile_group] and [fuse] spans still open. *)
