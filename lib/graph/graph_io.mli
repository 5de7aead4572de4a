(** Textual serialization of computation graphs (the "HGF" format): the
    reproduction's analog of the paper's ONNX model import (step 1 of its
    Fig. 10). A graph round-trips through a line-oriented s-expression
    format; each line ends in a tab and the MD5 of what precedes it
    (digests elided here):

    {v
    (graph "resnet50")
    (node 0 (input) (shape 1 3 224 224))
    (node 1 (constant random) (shape 64 3 7 7))
    (node 2 (conv2d 2 3 3) (inputs 0 1) (shape 1 64 112 112))
    ...
    (outputs 2)
    v}

    Node ids are dense and in order, and inputs refer to earlier nodes.
    Constant tensors with at most 4096 elements are
    serialized with their values (so small graphs round-trip exactly);
    larger weights are stored as [random] placeholders and rematerialize as
    deterministic pseudo-random tensors of the recorded shape on load —
    fine for latency work, where only shapes matter (DESIGN.md §3). *)

val to_string : Graph.t -> string
(** Never forces a constant too large to inline. *)

val of_string : string -> Graph.t
(** Raises [Failure] naming the first bad line ([Graph_io.of_string: line
    N: ...]) on malformed input: a line whose digest does not match, a
    node out of order, an unknown operator, a shape that disagrees with
    inference, or a missing or early [(outputs ...)] line. So a changed
    byte, a truncation, or a duplicated or reordered line either fails
    with its line number or gives the graph that was saved. *)

val save : Graph.t -> string -> unit
(** [save g path] *)

val load : string -> Graph.t
