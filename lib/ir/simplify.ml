(* How many IR nodes the rewrites below actually removed or folded, across
   the whole process — a cheap proxy for how much work the simplifier does
   per compilation. *)
let m_simplified = Hidet_obs.Metrics.counter "ir.nodes_simplified"

(* Every rewrite below rebuilds through [Expr.rebuild_*] and
   [Stmt.map_children], so what it leaves unchanged is shared, not copied. *)
let rec expr (e : Expr.t) : Expr.t =
  match e with
  | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> e
  | Binop (op, a, b) -> binop e op (expr a) (expr b)
  | Unop (op, a) -> Expr.rebuild_unop e op (expr a)
  | Select (c, a, b) ->
    let c = expr c and a = expr a and b = expr b in
    if Expr.equal a b then (
      Hidet_obs.Metrics.incr m_simplified;
      a)
    else Expr.rebuild_select e c a b
  | Load (buf, idx) -> Expr.rebuild_load e buf (Expr.map_list expr idx)

and binop e op a b =
  match (op, a, b) with
  | Expr.Sub, a, b when Expr.equal a b ->
    Hidet_obs.Metrics.incr m_simplified;
    Expr.Int 0
  | (Expr.Min | Expr.Max), a, b when Expr.equal a b ->
    Hidet_obs.Metrics.incr m_simplified;
    a
  (* (x * c + r) reassociation: fold constants across nested adds. *)
  | Expr.Add, Expr.Binop (Add, x, Expr.Int c1), Expr.Int c2 ->
    Hidet_obs.Metrics.incr m_simplified;
    Expr.add x (Expr.int (c1 + c2))
  | Expr.Mul, Expr.Binop (Mul, x, Expr.Int c1), Expr.Int c2 ->
    Hidet_obs.Metrics.incr m_simplified;
    Expr.mul x (Expr.int (c1 * c2))
  (* (x % c) % c = x % c  and  (x % c1) / c1 = 0 only when c1 = c; keep the
     safe same-divisor cases. *)
  | Expr.Mod, (Expr.Binop (Mod, _, Expr.Int c1) as inner), Expr.Int c2
    when c1 = c2 ->
    Hidet_obs.Metrics.incr m_simplified;
    inner
  | _ -> Expr.rebuild_binop e op a b

module Int_map = Map.Make (Int)

(* Substitute every variable bound in [env] at once, rebuilding through the
   same smart constructors as [Expr.subst]. *)
let rec subst env (e : Expr.t) =
  match e with
  | Var v -> ( match Int_map.find_opt v.Var.id env with Some x -> x | None -> e)
  | Int _ | Float _ | Bool _ | Thread_idx | Block_idx -> e
  | Binop (op, a, b) -> Expr.rebuild_binop e op (subst env a) (subst env b)
  | Unop (op, a) -> Expr.rebuild_unop e op (subst env a)
  | Select (c, a, b) ->
    Expr.rebuild_select e (subst env c) (subst env a) (subst env b)
  | Load (buf, idx) -> Expr.rebuild_load e buf (Expr.map_list (subst env) idx)

(* One pass: trivially bound [Let]s are not substituted into their body
   when met; the binding is carried down in [env] and every expression
   below is substituted once, then simplified. An expression under no
   trivial [Let] is only simplified. The outermost binding of a variable
   wins, as if each [Let] had been substituted into its body in turn.
   [walk env] is the rewrite under [env]: its closures are made once per
   environment, not per node. *)
let rec walk env =
  let expr =
    if Int_map.is_empty env then expr else fun e -> expr (subst env e)
  in
  let rec stmt (s : Stmt.t) : Stmt.t =
    match s with
    | Let ({ var; value; body } as l) -> (
      let value = expr value in
      match value with
      | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx ->
        Hidet_obs.Metrics.incr m_simplified;
        let env =
          if Int_map.mem var.Var.id env then env
          else Int_map.add var.Var.id value env
        in
        walk env body
      | _ ->
        let body' = stmt body in
        if value == l.value && body' == body then s
        else Stmt.let_ var value body')
    | _ -> Stmt.map_children expr stmt s
  in
  stmt

let stmt s = walk Int_map.empty s
