(** The template-based schedule for reduction operators (the paper's second
    and last schedule template, §6 "Implementation").

    One thread block cooperates on each output element: threads accumulate a
    strided slice of the (flattened) reduction domain in registers, then
    combine through a shared-memory binary tree with a barrier per level.
    Compared with the rule-based sequential reduction this parallelizes the
    reduction dimension, which matters for large reductions (global pooling,
    softmax denominators, layer-norm statistics). *)

type config = { block_size : int  (** power of two, <= 1024 *) }

val default_config : config
val space : config array
(** The hardware-centric space for reductions: a handful of block sizes. *)

val schedule : ?config:config -> Hidet_compute.Def.t -> Compiled.t
(** Raises [Invalid_argument] if the definition has no reduction or the
    block size is not a power of two. *)
