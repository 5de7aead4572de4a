(** Scalar expressions of the tensor-program IR.

    Smart constructors ({!add}, {!mul}, ...) perform local constant folding
    and algebraic identity elimination, so expressions built by schedulers are
    already partially simplified. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** integer division truncating toward zero / float division *)
  | Mod
  | Min
  | Max
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

type unop = Neg | Not | Exp | Log | Sqrt | Tanh | Erf | Abs

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Var of Var.t
  | Thread_idx  (** threadIdx.x: linear thread index within the block *)
  | Block_idx   (** blockIdx.x: linear block index within the grid *)
  | Binop of binop * t * t
  | Unop of unop * t
  | Select of t * t * t  (** [Select (cond, if_true, if_false)] *)
  | Load of Buffer.t * t list

(** Runtime values produced by evaluation. *)
type value = V_int of int | V_float of float | V_bool of bool

(** {1 Smart constructors} *)

val int : int -> t
(** Constants in [-1 .. 256] are preallocated and shared; the folding
    constructors below return them too. *)

val float : float -> t
val bool : bool -> t
val var : Var.t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val modulo : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t
val eq : t -> t -> t
val ne : t -> t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val not_ : t -> t
val neg : t -> t
val select : t -> t -> t -> t
val load : Buffer.t -> t list -> t
val binop : binop -> t -> t -> t
val unop : unop -> t -> t

(** {1 Rebuilding without copying}

    Each takes the node a rewriter is rewriting and that node's rewritten
    children, and is the smart constructor of that shape, except that where
    the constructor folds nothing and the node already has exactly these
    children (the same operator, children physically equal), it returns the
    node itself. *)

val rebuild_binop : t -> binop -> t -> t -> t
val rebuild_unop : t -> unop -> t -> t
val rebuild_select : t -> t -> t -> t -> t

val rebuild_load : t -> Buffer.t -> t list -> t
(** A [Load] without {!load}'s rank check: the indices are a rewrite of
    the node's own. *)

val map_list : ('a -> 'a) -> 'a list -> 'a list
(** [List.map], in the same order, returning the list itself when [f]
    returns every element physically unchanged. *)

(** Infix aliases for index arithmetic. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( % ) : t -> t -> t
  val ( < ) : t -> t -> t
  val ( <= ) : t -> t -> t
  val ( && ) : t -> t -> t
end

(** {1 Queries and transforms} *)

val equal : t -> t -> bool
(** Structural equality (buffers by id, vars by id). *)

val subst : Var.t -> t -> t -> t
(** [subst v e body] replaces every occurrence of [Var v] in [body] by [e],
    rebuilding through the smart constructors. A subtree without [Var v]
    that they would not fold is returned physically unchanged: so is
    [body] itself when [v] is not free in it and it was built by the smart
    constructors. *)

val free_vars : t -> Var.t list
(** Deduplicated, in first-occurrence order. *)

val map_loads : (Buffer.t -> t list -> t option) -> t -> t
(** Rewrite every [Load] node bottom-up; indices have already been rewritten
    when the callback runs. [None] keeps the load, with its rewritten
    indices. Subtrees the rewrite does not change are shared as in
    {!subst}: with a callback that keeps every load, the result is the
    argument itself if the smart constructors would not fold it. *)

val const_int : t -> int option
(** [Some n] iff the expression is a literal integer. *)

val is_pure_of_thread : t -> bool
(** [true] if the expression mentions [Thread_idx] (directly); used by the
    verifier to flag thread-divergent conditions. *)

(** {1 Evaluation} *)

type env = {
  lookup : Var.t -> value;
  load : Buffer.t -> int list -> value;
  thread_idx : int;
  block_idx : int;
}

val eval : env -> t -> value
val eval_int : env -> t -> int
val eval_float : env -> t -> float
val eval_bool : env -> t -> bool

val unop_value : unop -> value -> value
(** What {!eval} does with a [Unop]'s evaluated operand. *)

val binop_value : binop -> value -> value -> value
(** What {!eval} does with a [Binop]'s two evaluated operands, for every
    operator but [And]/[Or], which {!eval} short-circuits. Exposed, with
    {!unop_value}, so a partial evaluator can apply exactly {!eval}'s
    arithmetic and errors. *)

val eval_int_binop : binop -> int -> int -> value
(** Apply an arithmetic/comparison binop to two ints ([And]/[Or] are
    handled by short-circuit evaluation, not here). Exposed so the
    closure-compiling simulator backend dispatches mixed-type operands
    through exactly the same tables as {!eval}. *)

val eval_float_binop : binop -> float -> float -> value

val erf : float -> float
(** The scalar approximation {!eval} uses for [Erf]. *)

val float_of_value : value -> float
val int_of_value : value -> int
val bool_of_value : value -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
