type t =
  | Seq of t list
  | For of { var : Var.t; extent : Expr.t; unroll : bool; body : t }
  | If of { cond : Expr.t; then_ : t; else_ : t option }
  | Let of { var : Var.t; value : Expr.t; body : t }
  | Store of { buf : Buffer.t; indices : Expr.t list; value : Expr.t }
  | Mma of mma
  | Sync_threads
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

let nop = Seq []

let seq stmts =
  let rec flatten acc = function
    | [] -> acc
    | Seq inner :: rest -> flatten (flatten acc inner) rest
    | s :: rest -> flatten (s :: acc) rest
  in
  match List.rev (flatten [] stmts) with [ s ] -> s | ss -> Seq ss

let map_opt f o =
  match o with
  | None -> o
  | Some x ->
    let x' = f x in
    if x' == x then o else Some x'

let mma_at stmt (m : mma) a_off b_off c_off =
  if m.a_off == a_off && m.b_off == b_off && m.c_off == c_off then stmt
  else Mma { m with a_off; b_off; c_off }

(* Raw constructors, like the tree it rewrites: a [For] whose extent becomes
   1 or an [If] whose condition becomes constant stays one. *)
let rec subst v e stmt =
  let expr = Expr.subst v e in
  match stmt with
  | Seq ss ->
    let ss' = Expr.map_list (subst v e) ss in
    if ss' == ss then stmt else Seq ss'
  | For f ->
    let extent = expr f.extent and body = subst v e f.body in
    if extent == f.extent && body == f.body then stmt
    else For { f with extent; body }
  | If i ->
    let cond = expr i.cond
    and then_ = subst v e i.then_
    and else_ = map_opt (subst v e) i.else_ in
    if cond == i.cond && then_ == i.then_ && else_ == i.else_ then stmt
    else If { cond; then_; else_ }
  | Let l ->
    let value = expr l.value and body = subst v e l.body in
    if value == l.value && body == l.body then stmt else Let { l with value; body }
  | Store st ->
    let indices = Expr.map_list expr st.indices and value = expr st.value in
    if indices == st.indices && value == st.value then stmt
    else Store { st with indices; value }
  | Mma m ->
    mma_at stmt m
      (Expr.map_list expr m.a_off)
      (Expr.map_list expr m.b_off)
      (Expr.map_list expr m.c_off)
  | Sync_threads | Comment _ -> stmt

let for_ ?(unroll = false) var extent body =
  match extent with
  | Expr.Int 0 -> nop
  | Expr.Int 1 -> subst var (Expr.int 0) body
  | _ -> For { var; extent; unroll; body }

let loop ?unroll name extent body =
  if extent = 1 then body (Expr.int 0)
  else
    let v = Var.fresh name in
    for_ ?unroll v (Expr.int extent) (body (Expr.var v))

let if_ ?else_ cond then_ =
  match cond with
  | Expr.Bool true -> then_
  | Expr.Bool false -> ( match else_ with Some s -> s | None -> nop)
  | _ -> If { cond; then_; else_ }

let let_ var value body = Let { var; value; body }

let check_rank buf indices =
  if List.length indices <> Buffer.rank buf then
    invalid_arg (Printf.sprintf "Stmt.store: rank mismatch on %s" buf.Buffer.name)

let store buf indices value =
  check_rank buf indices;
  Store { buf; indices; value }

let sync = Sync_threads
let comment s = Comment s

let is_seq = function Seq _ -> true | _ -> false

let map_children f g stmt =
  match stmt with
  | Seq ss -> (
    let ss' = Expr.map_list g ss in
    match ss' with
    | ([] | _ :: _ :: _) when ss' == ss && not (List.exists is_seq ss) -> stmt
    | _ -> seq ss')
  | For fr -> (
    let extent = f fr.extent and body = g fr.body in
    match extent with
    | Expr.Int (0 | 1) -> for_ ~unroll:fr.unroll fr.var extent body
    | _ when extent == fr.extent && body == fr.body -> stmt
    | _ -> For { fr with extent; body })
  | If i -> (
    let cond = f i.cond and then_ = g i.then_ and else_ = map_opt g i.else_ in
    match cond with
    | Expr.Bool _ -> if_ ?else_ cond then_
    | _ when cond == i.cond && then_ == i.then_ && else_ == i.else_ -> stmt
    | _ -> If { cond; then_; else_ })
  | Let l ->
    let value = f l.value and body = g l.body in
    if value == l.value && body == l.body then stmt else Let { l with value; body }
  | Store st ->
    let indices = Expr.map_list f st.indices and value = f st.value in
    check_rank st.buf indices;
    if indices == st.indices && value == st.value then stmt
    else Store { st with indices; value }
  | Mma m ->
    mma_at stmt m
      (Expr.map_list f m.a_off)
      (Expr.map_list f m.b_off)
      (Expr.map_list f m.c_off)
  | Sync_threads | Comment _ -> stmt

let map_exprs f stmt =
  let rec go s = map_children f go s in
  go stmt

let rec fold f acc stmt =
  let acc = f acc stmt in
  match stmt with
  | Seq ss -> List.fold_left (fold f) acc ss
  | For { body; _ } -> fold f acc body
  | If { then_; else_; _ } -> (
    let acc = fold f acc then_ in
    match else_ with Some e -> fold f acc e | None -> acc)
  | Let { body; _ } -> fold f acc body
  | Store _ | Mma _ | Sync_threads | Comment _ -> acc

let count pred stmt = fold (fun n s -> if pred s then n + 1 else n) 0 stmt

let rec pp fmt stmt =
  match stmt with
  | Seq [] -> Format.fprintf fmt "pass"
  | Seq ss ->
    Format.pp_print_list ~pp_sep:Format.pp_print_cut pp fmt ss
  | For { var; extent; unroll; body } ->
    Format.fprintf fmt "@[<v 2>for %a in range(%a)%s:@,%a@]" Var.pp var Expr.pp
      extent
      (if unroll then "  # unroll" else "")
      pp body
  | If { cond; then_; else_ = None } ->
    Format.fprintf fmt "@[<v 2>if %a:@,%a@]" Expr.pp cond pp then_
  | If { cond; then_; else_ = Some e } ->
    Format.fprintf fmt "@[<v 2>if %a:@,%a@]@,@[<v 2>else:@,%a@]" Expr.pp cond pp
      then_ pp e
  | Let { var; value; body } ->
    Format.fprintf fmt "@[<v>let %a = %a@,%a@]" Var.pp var Expr.pp value pp body
  | Store { buf; indices; value } ->
    Format.fprintf fmt "%s%a = %a" buf.Buffer.name
      (Format.pp_print_list ~pp_sep:(fun _ () -> ()) (fun fmt e ->
           Format.fprintf fmt "[%a]" Expr.pp e))
      indices Expr.pp value
  | Mma m ->
    Format.fprintf fmt "mma_%dx%dx%d(%s, %s, %s)" m.m m.n m.k m.c.Buffer.name
      m.a.Buffer.name m.b.Buffer.name
  | Sync_threads -> Format.fprintf fmt "sync_threads()"
  | Comment s -> Format.fprintf fmt "# %s" s

let to_string s = Format.asprintf "@[<v>%a@]" pp s
