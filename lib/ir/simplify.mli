(** Simplification passes over expressions and statements.

    These are semantics-preserving rewrites: constant folding, algebraic
    identities, dead-branch elimination, trivial-let inlining and trivial-loop
    collapsing. The property tests in [test/test_ir.ml] check preservation on
    random expressions. *)

val expr : Expr.t -> Expr.t
(** Bottom-up resimplification through the smart constructors, plus
    identities requiring structural comparison (x - x = 0, min x x = x,
    select c a a = a, etc.). Nodes are rebuilt with {!Expr.rebuild_binop}
    and its kin, so whenever the result is structurally equal to the
    argument it is the argument itself ([==]), and an unchanged subtree
    of a changed expression is shared. *)

val stmt : Stmt.t -> Stmt.t
(** Applies {!expr} everywhere, collapses constant control flow, flattens
    sequences and inlines lets whose bound value is a literal or a
    variable.

    One pass over the statement. An inlined [Let] is not substituted into
    its body when it is met. Its binding joins a substitution environment
    carried down the walk, and each expression below is substituted once,
    for all bound variables at a time, through the same smart constructors
    as {!Expr.subst}, then simplified. The result and the
    ["ir.nodes_simplified"] count are those of substituting each inlined
    [Let] into its body in turn and simplifying the result. Statements are
    rebuilt by {!Stmt.map_children}, so those the pass does not change are
    shared with the argument. *)
