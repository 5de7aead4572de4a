(** Loop unrolling: materialize [For] loops marked [unroll] (and any loop
    with a small constant extent) into straight-line code by substituting
    the induction variable.

    Schedulers mark register-level loops (task-mapping [repeat] dimensions,
    fragment loads, FMA tiles) as unrollable; the CUDA backend normally
    leaves them to [#pragma unroll], but this pass performs the expansion in
    the IR so that (a) the simplifier can fold the resulting constant
    indices and (b) the emitted CUDA C can be fully straight-line.
    Semantics preservation is property-tested in [test/test_ir.ml]. *)

val stmt : ?threshold:int -> Stmt.t -> Stmt.t
(** Unroll marked loops with constant extent at most [threshold] (default
    16), innermost-first, then re-simplify. Unmarked or large loops are left
    intact. *)

val kernel : ?threshold:int -> Kernel.t -> Kernel.t
