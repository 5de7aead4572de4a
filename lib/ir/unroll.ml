let default_threshold = 16

let expandable threshold (f : Stmt.t) =
  match f with
  | Stmt.For { unroll; extent = Expr.Int n; _ } -> unroll && n >= 0 && n <= threshold
  | _ -> false

let rec expand threshold (s : Stmt.t) : Stmt.t =
  match s with
  | Stmt.Seq ss -> Stmt.seq (List.map (expand threshold) ss)
  | For ({ var; extent; body; _ } as f) ->
    let body = expand threshold body in
    if expandable threshold (For { f with body }) then
      let n = match extent with Expr.Int n -> n | _ -> assert false in
      Stmt.seq (List.init n (fun i -> Stmt.subst var (Expr.Int i) body))
    else Stmt.For { f with body }
  | If { cond; then_; else_ } ->
    Stmt.If
      {
        cond;
        then_ = expand threshold then_;
        else_ = Option.map (expand threshold) else_;
      }
  | Let l -> Stmt.Let { l with body = expand threshold l.body }
  | Store _ | Mma _ | Sync_threads | Comment _ -> s

let stmt ?(threshold = default_threshold) s = Simplify.stmt (expand threshold s)
let kernel ?threshold k = Kernel.map_body (stmt ?threshold) k
