(** The computation-graph IR (graph-level IR of the paper's Fig. 10).

    A graph is a DAG of operator nodes in topological order. Nodes are
    referred to by integer ids; the builder functions append nodes and
    return the new node's id, handing out [0, 1, 2, ...] in order. Shapes
    are inferred at construction. Nodes are stored in an array indexed by
    id, with each node's consumers recorded as they are appended, so the
    lookups below take constant time. *)

type node = {
  id : int;
  op : Op.t;
  inputs : int list;  (** producer node ids, in operator-input order *)
  shape : int list;  (** output shape *)
}

type t

val create : unit -> t
val name : t -> string -> unit
val get_name : t -> string

(** {1 Builders} *)

val input : t -> int list -> int
(** The leaf constructors ([input] and the [constant]s) raise
    [Invalid_argument "Graph.<op>: ..."] on a non-positive dim. *)

val constant : t -> Hidet_tensor.Tensor.t -> int
val constant_rand : t -> ?seed:int -> int list -> int
val constant_lazy : t -> int list -> Hidet_tensor.Tensor.t Lazy.t -> int
(** Deterministic pseudo-random weights, materialized lazily (latency
    benchmarks never force them). *)

val add_op : t -> Op.t -> int list -> int
(** Append any operator; shapes are inferred and checked. *)

(** Convenience wrappers. *)

val matmul : t -> int -> int -> int
val conv2d : t -> int -> int -> stride:int -> padding:int -> int
val conv2d_asym : t -> int -> int -> stride:int -> pad_h:int -> pad_w:int -> int
val depthwise_conv2d : t -> int -> int -> stride:int -> padding:int -> int
val relu : t -> int -> int
val gelu : t -> int -> int
val add : t -> int -> int -> int
val bias_add : t -> int -> int -> int
val scale_shift : t -> int -> scale:int -> shift:int -> int
val softmax : t -> int -> int
val layernorm : t -> ?eps:float -> int -> gamma:int -> beta:int -> int
val reshape : t -> int -> int list -> int
val transpose : t -> int -> int list -> int
val concat : t -> int list -> axis:int -> int
val maxpool : t -> int -> kernel:int -> stride:int -> padding:int -> int
val avgpool : t -> int -> kernel:int -> stride:int -> padding:int -> int
val global_avgpool : t -> int -> int

val set_outputs : t -> int list -> unit

(** {1 Inspection} *)

val node : t -> int -> node
(** O(1). Raises [Invalid_argument "Graph.node: no node N"] for an id
    outside [0 .. num_nodes - 1]. *)

val nodes : t -> node list
(** In topological (= creation) order. *)

val node_shape : t -> int -> int list
(** O(1); raises like {!node}. *)

val outputs : t -> int list
val input_ids : t -> int list
(** Graph inputs in creation order. *)

val consumers : t -> int -> int list
(** Node ids that consume the given node's output, in ascending order,
    each listed once (even when it takes the node twice, as [add x x]
    does); [[]] for an id that is not in the graph. O(number of
    consumers). *)

val num_nodes : t -> int
val flops : t -> float
(** Total multiply-add FLOPs of compute-intensive operators (matmul and
    convolutions), for reporting. *)

val pp : Format.formatter -> t -> unit
