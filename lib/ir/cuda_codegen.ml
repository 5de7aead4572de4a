(* Every buffer and variable is printed as its name hint plus a per-kernel
   number, assigned in binding order: buffers as the kernel declares them
   (params, shared, warp, registers), then variables as their loops and
   lets bind them. No process-global [Buffer.id] or [Var.id] reaches the
   text, so alpha-equivalent kernels print byte-identical source. One
   counter serves both kinds, so a buffer and a variable sharing a hint
   never collide. A kernel that fails {!Verify} can hold an undeclared
   buffer or an unbound variable; those print with their global ids. *)
let kernel_names (k : Kernel.t) =
  let names = Hashtbl.create 64 in
  let name key hint =
    if not (Hashtbl.mem names key) then
      Hashtbl.add names key (Printf.sprintf "%s_%d" hint (Hashtbl.length names + 1))
  in
  List.iter
    (fun (b : Buffer.t) -> name (`Buf b.Buffer.id) b.Buffer.name)
    (k.params @ k.shared @ k.warp_bufs @ k.regs);
  Stmt.fold
    (fun () (s : Stmt.t) ->
      match s with
      | For { var; _ } | Let { var; _ } -> name (`Var var.Var.id) var.Var.name
      | _ -> ())
    () k.body;
  names

let buf_c_name names (b : Buffer.t) =
  match Hashtbl.find_opt names (`Buf b.Buffer.id) with
  | Some n -> n
  | None -> Printf.sprintf "%s_%d" b.Buffer.name b.Buffer.id

let var_c_name names (v : Var.t) =
  match Hashtbl.find_opt names (`Var v.Var.id) with
  | Some n -> n
  | None -> Var.name v

let binop_symbol = function
  | Expr.Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"
  | Min | Max -> assert false

(* Global buffers are passed as flat pointers, so a multi-dim access is
   linearized; scope buffers are declared as C arrays and keep their
   multi-dim bracket form. *)
let rec access names (b : Buffer.t) indices =
  match b.Buffer.scope with
  | Buffer.Global ->
    let flat =
      List.fold_left2
        (fun acc idx dim -> Expr.add (Expr.mul acc (Expr.int dim)) idx)
        (Expr.int 0) indices b.Buffer.dims
    in
    Printf.sprintf "%s[%s]" (buf_c_name names b) (expr names flat)
  | Buffer.Shared | Buffer.Warp | Buffer.Register ->
    Printf.sprintf "%s%s" (buf_c_name names b)
      (String.concat "" (List.map (fun i -> "[" ^ expr names i ^ "]") indices))

and expr names (e : Expr.t) =
  let expr = expr names in
  match e with
  | Int n -> string_of_int n
  | Float f ->
    let s = Printf.sprintf "%.9g" f in
    if String.contains s '.' || String.contains s 'e' then s ^ "f" else s ^ ".0f"
  | Bool b -> if b then "true" else "false"
  | Var v -> var_c_name names v
  | Thread_idx -> "threadIdx.x"
  | Block_idx -> "blockIdx.x"
  | Binop (Min, a, b) -> Printf.sprintf "min(%s, %s)" (expr a) (expr b)
  | Binop (Max, a, b) -> Printf.sprintf "max(%s, %s)" (expr a) (expr b)
  | Binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr a) (binop_symbol op) (expr b)
  | Unop (Neg, a) -> Printf.sprintf "(-%s)" (expr a)
  | Unop (Not, a) -> Printf.sprintf "(!%s)" (expr a)
  | Unop (Exp, a) -> Printf.sprintf "expf(%s)" (expr a)
  | Unop (Log, a) -> Printf.sprintf "logf(%s)" (expr a)
  | Unop (Sqrt, a) -> Printf.sprintf "sqrtf(%s)" (expr a)
  | Unop (Tanh, a) -> Printf.sprintf "tanhf(%s)" (expr a)
  | Unop (Erf, a) -> Printf.sprintf "erff(%s)" (expr a)
  | Unop (Abs, a) -> Printf.sprintf "fabsf(%s)" (expr a)
  | Select (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (expr c) (expr a) (expr b)
  | Load (b, indices) -> access names b indices

let pad n = String.make (2 * n) ' '

let rec stmt_lines names indent (s : Stmt.t) : string list =
  let p = pad indent in
  let expr = expr names and var_c_name = var_c_name names in
  let stmt_lines = stmt_lines names and access = access names in
  match s with
  | Seq ss -> List.concat_map (stmt_lines indent) ss
  | For { var; extent; unroll; body } ->
    let header =
      Printf.sprintf "%sfor (int %s = 0; %s < %s; ++%s) {" p (var_c_name var)
        (var_c_name var) (expr extent) (var_c_name var)
    in
    (if unroll then [ p ^ "#pragma unroll" ] else [])
    @ [ header ]
    @ stmt_lines (indent + 1) body
    @ [ p ^ "}" ]
  | If { cond; then_; else_ } -> (
    let open_line = Printf.sprintf "%sif (%s) {" p (expr cond) in
    let then_lines = stmt_lines (indent + 1) then_ in
    match else_ with
    | None -> (open_line :: then_lines) @ [ p ^ "}" ]
    | Some e ->
      (open_line :: then_lines)
      @ [ p ^ "} else {" ]
      @ stmt_lines (indent + 1) e
      @ [ p ^ "}" ])
  | Let { var; value; body } ->
    let ty = if Dtype.is_float var.Var.dtype then "float" else "int" in
    Printf.sprintf "%sconst %s %s = %s;" p ty (var_c_name var) (expr value)
    :: stmt_lines indent body
  | Store { buf; indices; value } ->
    [ Printf.sprintf "%s%s = %s;" p (access buf indices) (expr value) ]
  | Mma m ->
    [ Printf.sprintf "%smma_sync_%dx%dx%d(&%s, &%s, &%s);" p m.m m.n m.k
        (access m.c m.c_off) (access m.a m.a_off) (access m.b m.b_off);
    ]
  | Sync_threads -> [ p ^ "__syncthreads();" ]
  | Comment c -> [ Printf.sprintf "%s// %s" p c ]

let decl names prefix (b : Buffer.t) =
  Printf.sprintf "  %s%s %s%s;" prefix
    (Dtype.cuda_name b.Buffer.elt)
    (buf_c_name names b)
    (String.concat ""
       (List.map (fun d -> Printf.sprintf "[%d]" d) b.Buffer.dims))

let kernel (k : Kernel.t) =
  let names = kernel_names k in
  let params =
    String.concat ", "
      (List.map
         (fun (b : Buffer.t) ->
           Printf.sprintf "%s* __restrict__ %s"
             (Dtype.cuda_name b.Buffer.elt)
             (buf_c_name names b))
         k.params)
  in
  let lines =
    [
      Printf.sprintf "// grid=%d block=%d stages=%d" k.grid_dim k.block_dim
        k.pipeline_stages;
      Printf.sprintf "__global__ void __launch_bounds__(%d) %s(%s) {"
        k.block_dim k.name params;
    ]
    @ List.map (decl names "__shared__ ") k.shared
    @ List.map (decl names "/* warp-distributed */ ") k.warp_bufs
    @ List.map (decl names "") k.regs
    @ stmt_lines names 1 k.body
    @ [ "}" ]
  in
  String.concat "\n" lines

let program kernels =
  let header =
    "// Generated by hidet-ocaml (task-mapping programming paradigm)\n\
     // mma_sync_MxNxK: warp-cooperative tensor-core tile multiply-accumulate.\n"
  in
  header ^ String.concat "\n\n" (List.map kernel kernels) ^ "\n"
