(** Handshake and runtime support for dynlinked native kernels.

    {!Exec_ocaml} pretty-prints each kernel to an OCaml source file whose
    toplevel effect is one {!register} call, compiles it with [ocamlopt
    -shared] and [Dynlink]s the result; the loaded unit hands its entry
    point back through the table here. Everything else in this module is
    the small runtime surface the generated code calls into: barrier
    intervals, the exact error raisers of the interpreter backends, and
    [Expr.eval]'s dynamic-dispatch fallback for statically untypeable
    expressions — re-exported so generated source references one module
    only, and so all three backends raise bit-identical errors. *)

type entry = int -> int -> float array array -> int
(** [entry tid bid bufs] runs one thread and returns the number of
    statements it executed. [bufs] is indexed by {!Launch.slots}; a
    {!Launch.t} runs every compiled backend's entry. *)

type block = int -> float array array array -> int
(** [block bid tbufs] runs every thread of block [bid] of a phased kernel
    ({!Launch.phased}), one barrier interval at a time, and returns the
    number of statements they executed. [tbufs.(tid)] is thread [tid]'s
    [bufs]. *)

type body = Thread of entry | Block of block
(** What a unit holds: a thread entry (a kernel without a barrier) or a
    phased block. A kernel with a barrier that {!Launch.phased} refuses
    gets no unit: it runs on the reference ({!Launch.reference}). *)

val register : string -> body -> unit
(** Called by the generated unit's toplevel [let () = ...] under the unit's
    own (unique) module name. *)

val take : string -> body option
(** Claim and remove a registered entry; [None] if the unit never ran its
    registration (a codegen or link bug). *)

(** {1 Runtime support used by generated code} *)

(** {2 Barrier intervals}

    A phased block runs its threads one barrier interval at a time. The
    block-level code pushes each stretch of per-thread code (a segment)
    as it reaches it, and at a barrier {!flush}es them: every thread, in
    ascending order, runs all pending segments. That is the order the
    reference's thread fibers run in between two barriers. *)

type 'a interval
(** The segments pending since the last barrier, over a block's threads
    (their frames, or their [tid]s). *)

val interval : 'a array -> 'a interval
val push : 'a interval -> ('a -> int -> unit) -> int -> unit
(** [push iv seg arg]: [seg thread arg] runs at the next {!flush}. *)

val flush : 'a interval -> unit
(** Run the pending segments, thread by thread in array order, and empty
    the interval. *)

val oob : int -> int -> string -> 'a
(** [Interp.Invalid_access] with [Buffer.flat_index]'s exact message. *)

val rank_mismatch : string -> 'a
val not_allocated : string -> string -> 'a
(** [not_allocated name scope_name]. *)

val unbound_var : string -> 'a
val mma_rank : string -> 'a

val neg_bool : unit -> 'a
val abs_bool : unit -> 'a
val bool_binop : unit -> 'a
(** [Invalid_argument] with [Expr.eval]'s exact messages (the operands
    have already been evaluated by the caller, like the reference). *)

val erf : float -> float

(** {1 Dynamic-dispatch fallback}

    The boxed escape hatch for expressions whose type depends on runtime
    control flow, dispatching exactly like [Expr.eval]. *)

type value = Hidet_ir.Expr.value =
  | V_int of int
  | V_float of float
  | V_bool of bool

val int_of_value : value -> int
val float_of_value : value -> float
val bool_of_value : value -> bool

val dyn_neg : value -> value
val dyn_abs : value -> value

val binop_code : Hidet_ir.Expr.binop -> int
(** The code of an arithmetic or comparison binop, which {!dyn_binop}
    decodes and {!Exec_ocaml.key} writes; [Invalid_argument] for
    [And]/[Or], which short-circuit in generated code. *)

val dyn_binop : int -> value -> value -> value
(** [dyn_binop code va vb] applies the binop whose {!binop_code} is
    [code]: int×int via [Expr.eval_int_binop], numeric mix via
    [Expr.eval_float_binop], bool operands rejected. *)
