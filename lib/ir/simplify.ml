(* How many IR nodes the rewrites below actually removed or folded, across
   the whole process — a cheap proxy for how much work the simplifier does
   per compilation. *)
let m_simplified = Hidet_obs.Metrics.counter "ir.nodes_simplified"

let rec expr (e : Expr.t) : Expr.t =
  match e with
  | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> e
  | Binop (op, a, b) -> binop op (expr a) (expr b)
  | Unop (op, a) -> Expr.unop op (expr a)
  | Select (c, a, b) ->
    let c = expr c and a = expr a and b = expr b in
    if Expr.equal a b then (
      Hidet_obs.Metrics.incr m_simplified;
      a)
    else Expr.select c a b
  | Load (buf, idx) -> Expr.Load (buf, List.map expr idx)

and binop op a b =
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
    Expr.add x (Expr.Int (c1 + c2))
  | Expr.Mul, Expr.Binop (Mul, x, Expr.Int c1), Expr.Int c2 ->
    Hidet_obs.Metrics.incr m_simplified;
    Expr.mul x (Expr.Int (c1 * c2))
  (* (x % c) % c = x % c  and  (x % c1) / c1 = 0 only when c1 = c; keep the
     safe same-divisor cases. *)
  | Expr.Mod, (Expr.Binop (Mod, _, Expr.Int c1) as inner), Expr.Int c2
    when c1 = c2 ->
    Hidet_obs.Metrics.incr m_simplified;
    inner
  | _ -> Expr.binop op a b

module Int_map = Map.Make (Int)

(* Substitute every variable bound in [env] at once, rebuilding through the
   same smart constructors as [Expr.subst]. *)
let rec subst env (e : Expr.t) =
  match e with
  | Var v -> ( match Int_map.find_opt v.Var.id env with Some x -> x | None -> e)
  | Int _ | Float _ | Bool _ | Thread_idx | Block_idx -> e
  | Binop (op, a, b) -> Expr.binop op (subst env a) (subst env b)
  | Unop (op, a) -> Expr.unop op (subst env a)
  | Select (c, a, b) -> Expr.select (subst env c) (subst env a) (subst env b)
  | Load (buf, idx) -> Load (buf, List.map (subst env) idx)

(* One pass: trivially bound [Let]s are not substituted into their body
   when met; the binding is carried down in [env] and every expression
   below is substituted once, then simplified. An expression under no
   trivial [Let] is only simplified. The outermost binding of a variable
   wins, as if each [Let] had been substituted into its body in turn. *)
let rec stmt_in env (s : Stmt.t) : Stmt.t =
  let expr e = expr (if Int_map.is_empty env then e else subst env e) in
  let stmt = stmt_in env in
  match s with
  | Seq ss -> Stmt.seq (List.map stmt ss)
  | For { var; extent; unroll; body } ->
    Stmt.for_ ~unroll var (expr extent) (stmt body)
  | If { cond; then_; else_ } ->
    Stmt.if_ ?else_:(Option.map stmt else_) (expr cond) (stmt then_)
  | Let { var; value; body } -> (
    let value = expr value in
    match value with
    | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx ->
      Hidet_obs.Metrics.incr m_simplified;
      let env =
        if Int_map.mem var.Var.id env then env
        else Int_map.add var.Var.id value env
      in
      stmt_in env body
    | _ -> Stmt.let_ var value (stmt body))
  | Store { buf; indices; value } ->
    Stmt.store buf (List.map expr indices) (expr value)
  | Mma m ->
    Mma
      {
        m with
        a_off = List.map expr m.a_off;
        b_off = List.map expr m.b_off;
        c_off = List.map expr m.c_off;
      }
  | Sync_threads | Comment _ -> s

let stmt s = stmt_in Int_map.empty s
