(** Statements of the tensor-program IR.

    The rewriters ({!subst}, {!map_exprs}, {!map_children}, and through
    {!subst} the extent-1 case of {!for_}) share what they do not change,
    as [Expr]'s do: a statement none of whose expressions or children
    changes, and that its constructor would not fold, is returned
    physically equal ([==]). *)

type t =
  | Seq of t list
  | For of { var : Var.t; extent : Expr.t; unroll : bool; body : t }
  | If of { cond : Expr.t; then_ : t; else_ : t option }
  | Let of { var : Var.t; value : Expr.t; body : t }
  | Store of { buf : Buffer.t; indices : Expr.t list; value : Expr.t }
  | Mma of mma
      (** Warp-level matrix-multiply-accumulate via tensor cores:
          [c\[m,n\] += sum_k a\[m,k\] * b\[k,n\]], executed cooperatively by
          one warp. Offsets locate the tile inside each buffer. *)
  | Sync_threads  (** __syncthreads(): block-wide barrier *)
  | Comment of string

and mma = {
  m : int;
  n : int;
  k : int;
  a : Buffer.t;
  a_off : Expr.t list;
  b : Buffer.t;
  b_off : Expr.t list;
  c : Buffer.t;
  c_off : Expr.t list;
}

val nop : t
val seq : t list -> t
(** Flattens nested [Seq] and drops empty ones. *)

val for_ : ?unroll:bool -> Var.t -> Expr.t -> t -> t
(** Extent 0 becomes {!nop}; extent 1 substitutes the index with 0 (by
    {!subst}, so the parts of the body without the index are shared). *)

val loop : ?unroll:bool -> string -> int -> (Expr.t -> t) -> t
(** [loop name n body]: a {!for_} over a fresh index named [name], with
    [body] given the index. For [n = 1], [body] is given [0] and no
    variable or loop is made, so nothing is substituted afterwards. *)

val if_ : ?else_:t -> Expr.t -> t -> t
(** Constant conditions select a branch statically. *)

val let_ : Var.t -> Expr.t -> t -> t
val store : Buffer.t -> Expr.t list -> Expr.t -> t
val sync : t
val comment : string -> t

val subst : Var.t -> Expr.t -> t -> t
(** Capture is impossible because every [Var.t] is globally unique.
    Expressions are rebuilt by {!Expr.subst}; statements keep their raw
    constructors (a loop whose extent becomes 1 stays a loop). A
    statement the substitution does not change is returned itself. *)

val map_children : (Expr.t -> Expr.t) -> (t -> t) -> t -> t
(** One level of a rewrite: [map_children f g s] applies [f] to [s]'s own
    expressions and [g] to its child statements, and rebuilds [s] through
    {!seq}, {!for_}, {!if_}, {!let_} and {!store}. It returns [s] itself
    when every [f] and [g] returns its argument and no constructor folds
    [s]. *)

val map_exprs : (Expr.t -> Expr.t) -> t -> t
(** Apply [f] to every expression in the statement tree (loop extents,
    conditions, indices, stored values, let bindings, MMA offsets), by
    {!map_children} at every level: the statements along the paths [f]
    changes nothing on are shared. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over every statement node. *)

val count : (t -> bool) -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
