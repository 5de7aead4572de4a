type error = { where : string; message : string }

let pp_error fmt e = Format.fprintf fmt "[%s] %s" e.where e.message

module Int_set = Set.Make (Int)

type ctx = {
  bound : Int_set.t;  (** bound variable ids *)
  bufs : Int_set.t;  (** declared buffer ids *)
  divergent : bool;  (** inside thread-divergent control flow *)
  errors : error list ref;  (** shared across derived contexts *)
}

let error ctx where fmt =
  Format.kasprintf (fun message -> ctx.errors := { where; message } :: !(ctx.errors)) fmt

let rec check_expr ctx where (e : Expr.t) =
  match e with
  | Int _ | Float _ | Bool _ | Thread_idx | Block_idx -> ()
  | Var v ->
    if not (Int_set.mem v.Var.id ctx.bound) then
      error ctx where "unbound variable %s" (Var.name v)
  | Binop (_, a, b) ->
    check_expr ctx where a;
    check_expr ctx where b
  | Unop (_, a) -> check_expr ctx where a
  | Select (c, a, b) ->
    check_expr ctx where c;
    check_expr ctx where a;
    check_expr ctx where b
  | Load (buf, idx) -> check_access ctx where buf idx

and check_access ctx where buf idx =
  if not (Int_set.mem buf.Buffer.id ctx.bufs) then
    error ctx where "access to undeclared buffer %s" buf.Buffer.name;
  if List.length idx <> Buffer.rank buf then
    error ctx where "rank mismatch on %s: %d indices for rank %d"
      buf.Buffer.name (List.length idx) (Buffer.rank buf);
  List.iter (check_expr ctx where) idx

let check_mma_tile ctx where (buf : Buffer.t) rows cols =
  match List.rev buf.Buffer.dims with
  | c :: r :: _ ->
    if r < rows || c < cols then
      error ctx where "MMA tile %dx%d exceeds trailing dims of %s" rows cols
        buf.Buffer.name
  | _ -> error ctx where "MMA operand %s must have rank >= 2" buf.Buffer.name

let rec check_stmt ctx (s : Stmt.t) =
  match s with
  | Seq ss -> List.iter (check_stmt ctx) ss
  | For { var; extent; body; _ } ->
    check_expr ctx "for" extent;
    let divergent = ctx.divergent || Expr.is_pure_of_thread extent in
    check_stmt
      { ctx with bound = Int_set.add var.Var.id ctx.bound; divergent }
      body
  | If { cond; then_; else_ } ->
    check_expr ctx "if" cond;
    let divergent = ctx.divergent || Expr.is_pure_of_thread cond in
    let ctx' = { ctx with divergent } in
    check_stmt ctx' then_;
    Option.iter (check_stmt ctx') else_
  | Let { var; value; body } ->
    check_expr ctx "let" value;
    check_stmt { ctx with bound = Int_set.add var.Var.id ctx.bound } body
  | Store { buf; indices; value } ->
    check_access ctx "store" buf indices;
    check_expr ctx "store" value
  | Mma m ->
    List.iter (check_expr ctx "mma") (m.a_off @ m.b_off @ m.c_off);
    List.iter
      (fun (b : Buffer.t) ->
        if not (Int_set.mem b.Buffer.id ctx.bufs) then
          error ctx "mma" "access to undeclared buffer %s" b.Buffer.name)
      [ m.a; m.b; m.c ];
    check_mma_tile ctx "mma" m.a m.m m.k;
    check_mma_tile ctx "mma" m.b m.k m.n;
    check_mma_tile ctx "mma" m.c m.m m.n
  | Sync_threads ->
    if ctx.divergent then
      error ctx "sync" "sync_threads under thread-divergent control flow"
  | Comment _ -> ()

(* NVIDIA architectural limit on threads per block. *)
let max_block_dim = 1024

let kernel (k : Kernel.t) =
  let bufs =
    List.fold_left
      (fun acc (b : Buffer.t) -> Int_set.add b.Buffer.id acc)
      Int_set.empty
      (k.params @ k.shared @ k.warp_bufs @ k.regs)
  in
  let ctx = { bound = Int_set.empty; bufs; divergent = false; errors = ref [] } in
  if k.block_dim > max_block_dim then
    error ctx "launch" "block_dim %d exceeds maximum %d" k.block_dim
      max_block_dim;
  check_stmt ctx k.body;
  match !(ctx.errors) with [] -> Ok () | errs -> Error (List.rev errs)

(* Block-disjointness analysis for domain-parallel grid execution: see the
   .mli for the exact guarantee. Taint flows from [Block_idx] through
   [Let]-bound variables only; [For]-bound variables always range from 0 and
   so never prove per-block disjointness. *)

let rec expr_tainted tainted (e : Expr.t) =
  match e with
  | Expr.Block_idx -> true
  | Var v -> Int_set.mem v.Var.id tainted
  | Int _ | Float _ | Bool _ | Thread_idx -> false
  | Binop (_, a, b) -> expr_tainted tainted a || expr_tainted tainted b
  | Unop (_, a) -> expr_tainted tainted a
  | Select (c, a, b) ->
    expr_tainted tainted c || expr_tainted tainted a || expr_tainted tainted b
  | Load (_, idx) -> List.exists (expr_tainted tainted) idx

let block_disjoint_writes (k : Kernel.t) =
  let is_global (b : Buffer.t) = b.Buffer.scope = Buffer.Global in
  let stored = ref Int_set.empty and loaded = ref Int_set.empty in
  let ok = ref true in
  let note_loads e =
    ignore
      (Expr.map_loads
         (fun b _ ->
           if is_global b then loaded := Int_set.add b.Buffer.id !loaded;
           None)
         e)
  in
  let rec go tainted (s : Stmt.t) =
    match s with
    | Stmt.Seq ss -> List.iter (go tainted) ss
    | For { extent; body; _ } ->
      note_loads extent;
      go tainted body
    | If { cond; then_; else_ } ->
      note_loads cond;
      go tainted then_;
      Option.iter (go tainted) else_
    | Let { var; value; body } ->
      note_loads value;
      let tainted =
        if expr_tainted tainted value then Int_set.add var.Var.id tainted
        else tainted
      in
      go tainted body
    | Store { buf; indices; value } ->
      List.iter (note_loads) indices;
      note_loads value;
      if is_global buf then begin
        stored := Int_set.add buf.Buffer.id !stored;
        if not (List.exists (expr_tainted tainted) indices) then ok := false
      end
    | Mma m ->
      List.iter (note_loads) (m.a_off @ m.b_off @ m.c_off);
      List.iter
        (fun (b : Buffer.t) ->
          if is_global b then loaded := Int_set.add b.Buffer.id !loaded)
        [ m.a; m.b ];
      (* The accumulator tile is both read and written. *)
      if is_global m.c then begin
        stored := Int_set.add m.c.Buffer.id !stored;
        loaded := Int_set.add m.c.Buffer.id !loaded;
        if not (List.exists (expr_tainted tainted) m.c_off) then ok := false
      end
    | Sync_threads | Comment _ -> ()
  in
  go Int_set.empty k.body;
  !ok && Int_set.is_empty (Int_set.inter !stored !loaded)

let kernel_exn k =
  match kernel k with
  | Ok () -> ()
  | Error errs ->
    let msg =
      String.concat "; "
        (List.map (fun e -> Format.asprintf "%a" pp_error e) errs)
    in
    failwith (Printf.sprintf "kernel %s failed verification: %s" k.name msg)
