(* Reference implementations kept as differential-test oracles: the
   straightforward versions of the traffic analyses (one walk for the
   counts plus one walk per block id for the L2 block reuse), of the
   statement simplifier (one [Stmt.subst] over the remaining body per
   trivially bound [Let]), of the graph lookups (linear scans of the
   node list), of a compile that rebuilds every kernel, fusion and
   estimate, of the pipeline-pattern check (one event list per loop body)
   and of the matmul template's config check (building the load mappings)
   and config names (Printf). The library's single-walk, indexed, memoized,
   streaming and allocation-free versions must agree with them bit for
   bit. *)

module Buffer = Hidet_ir.Buffer
module Dtype = Hidet_ir.Dtype
module Expr = Hidet_ir.Expr
module Kernel = Hidet_ir.Kernel
module Simplify = Hidet_ir.Simplify
module Stmt = Hidet_ir.Stmt
module Var = Hidet_ir.Var
module Traffic = Hidet_gpu.Traffic

(* --- Traffic.kernel ------------------------------------------------------- *)

let zero = Traffic.zero

let add (a : Traffic.counts) (b : Traffic.counts) : Traffic.counts =
  {
    global_load_bytes = a.global_load_bytes +. b.global_load_bytes;
    global_store_bytes = a.global_store_bytes +. b.global_store_bytes;
    global_ld_transactions = a.global_ld_transactions +. b.global_ld_transactions;
    shared_bytes = a.shared_bytes +. b.shared_bytes;
    flops = a.flops +. b.flops;
    mma_flops = a.mma_flops +. b.mma_flops;
    syncs = a.syncs +. b.syncs;
  }

let scale s (a : Traffic.counts) : Traffic.counts =
  {
    global_load_bytes = s *. a.global_load_bytes;
    global_store_bytes = s *. a.global_store_bytes;
    global_ld_transactions = s *. a.global_ld_transactions;
    shared_bytes = s *. a.shared_bytes;
    flops = s *. a.flops;
    mma_flops = s *. a.mma_flops;
    syncs = s *. a.syncs;
  }

let probe_env ?(bindings = fun _ -> None) ?(block = 0) tid =
  {
    Expr.lookup =
      (fun v ->
        match bindings v with Some value -> value | None -> Expr.V_int 0);
    load = (fun _ _ -> Expr.V_float 0.);
    thread_idx = tid;
    block_idx = block;
  }

let flatten_index (b : Buffer.t) indices =
  List.fold_left2
    (fun acc idx dim -> Expr.add (Expr.mul acc (Expr.int dim)) idx)
    (Expr.int 0) indices b.Buffer.dims

let rec expr_counts ~in_value (e : Expr.t) : Traffic.counts =
  match e with
  | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> zero
  | Binop (op, a, b) ->
    let c = add (expr_counts ~in_value a) (expr_counts ~in_value b) in
    let is_arith =
      match op with
      | Add | Sub | Mul | Div | Mod | Min | Max -> true
      | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> false
    in
    if in_value && is_arith then { c with flops = c.flops +. 1. } else c
  | Unop (op, a) ->
    let c = expr_counts ~in_value a in
    let cost =
      match op with
      | Neg | Not | Abs -> 1.
      | Exp | Log | Sqrt | Tanh | Erf -> 4.
    in
    if in_value then { c with flops = c.flops +. cost } else c
  | Select (cond, a, b) ->
    add
      (expr_counts ~in_value:false cond)
      (add (expr_counts ~in_value a) (expr_counts ~in_value b))
  | Load (buf, indices) ->
    let c =
      List.fold_left
        (fun acc i -> add acc (expr_counts ~in_value:false i))
        zero indices
    in
    let bytes = float_of_int (Dtype.size_bytes buf.Buffer.elt) in
    (match buf.Buffer.scope with
    | Buffer.Global ->
      let stride = Traffic.coalescing_stride (flatten_index buf indices) in
      {
        c with
        global_load_bytes = c.global_load_bytes +. bytes;
        global_ld_transactions =
          c.global_ld_transactions +. Traffic.effective_factor stride;
      }
    | Buffer.Shared | Buffer.Warp ->
      { c with shared_bytes = c.shared_bytes +. bytes }
    | Buffer.Register -> c)

let rec stmt_counts env (s : Stmt.t) : Traffic.counts =
  let bindings v = Hashtbl.find_opt env v.Var.id in
  match s with
  | Seq ss -> List.fold_left (fun acc x -> add acc (stmt_counts env x)) zero ss
  | For { var; extent; body; _ } ->
    let n =
      match Expr.const_int extent with
      | Some n -> float_of_int (max n 0)
      | None -> (
        try float_of_int (max (Expr.eval_int (probe_env ~bindings 0) extent) 1)
        with _ -> 1.)
    in
    Hashtbl.replace env var.Var.id (Expr.V_int 0);
    let c = add (expr_counts ~in_value:false extent) (scale n (stmt_counts env body)) in
    Hashtbl.remove env var.Var.id;
    c
  | If { cond; then_; else_ } ->
    let c = expr_counts ~in_value:false cond in
    let c = add c (stmt_counts env then_) in
    (match else_ with Some e -> add c (stmt_counts env e) | None -> c)
  | Let { var; value; body } ->
    let in_value = Dtype.is_float var.Var.dtype in
    (try Hashtbl.replace env var.Var.id (Expr.eval (probe_env ~bindings 0) value)
     with _ -> ());
    let c = add (expr_counts ~in_value value) (stmt_counts env body) in
    Hashtbl.remove env var.Var.id;
    c
  | Store { buf; indices; value } ->
    let c =
      List.fold_left
        (fun acc i -> add acc (expr_counts ~in_value:false i))
        (expr_counts ~in_value:true value)
        indices
    in
    let bytes = float_of_int (Dtype.size_bytes buf.Buffer.elt) in
    (match buf.Buffer.scope with
    | Buffer.Global -> { c with global_store_bytes = c.global_store_bytes +. bytes }
    | Buffer.Shared | Buffer.Warp -> { c with shared_bytes = c.shared_bytes +. bytes }
    | Buffer.Register -> c)
  | Mma m ->
    let flops = 2. *. float_of_int (m.m * m.n * m.k) in
    let tile_bytes = 4. *. float_of_int ((m.m * m.k) + (m.k * m.n)) *. 0.5 in
    { zero with mma_flops = flops; shared_bytes = tile_bytes /. 32. }
  | Sync_threads -> { zero with syncs = 1. }
  | Comment _ -> zero

let kernel (k : Kernel.t) = stmt_counts (Hashtbl.create 16) k.body

(* --- Traffic.block_reuse: one walk per block id ---------------------------- *)

let block_reuse ~window (k : Kernel.t) =
  let w = max 1 (min window k.Kernel.grid_dim) in
  if w = 1 then 1.
  else begin
    let distinct : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
    let weights : (int, float) Hashtbl.t = Hashtbl.create 8 in
    let unknown = ref 0 in
    let best = ref 1. in
    for b = 0 to w - 1 do
      let env = Hashtbl.create 16 in
      let bindings v = Hashtbl.find_opt env v.Var.id in
      let penv = probe_env ~bindings ~block:b 0 in
      let site = ref 0 in
      let record buf indices scale =
        let id = !site in
        incr site;
        if not (Hashtbl.mem weights id) then
          Hashtbl.add weights id
            (float_of_int (Dtype.size_bytes buf.Buffer.elt) *. scale);
        let value =
          match Expr.eval_int penv (flatten_index buf indices) with
          | v -> v
          | exception _ ->
            incr unknown;
            - !unknown
        in
        let tbl =
          match Hashtbl.find_opt distinct id with
          | Some t -> t
          | None ->
            let t = Hashtbl.create 4 in
            Hashtbl.add distinct id t;
            t
        in
        Hashtbl.replace tbl value ()
      in
      let rec expr scale (e : Expr.t) =
        match e with
        | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> ()
        | Binop (_, a, b') ->
          expr scale a;
          expr scale b'
        | Unop (_, a) -> expr scale a
        | Select (c, a, b') ->
          expr scale c;
          expr scale a;
          expr scale b'
        | Load (buf, indices) ->
          List.iter (expr scale) indices;
          if buf.Buffer.scope = Buffer.Global then record buf indices scale
      in
      let rec stmt scale (s : Stmt.t) =
        match s with
        | Seq ss -> List.iter (stmt scale) ss
        | For { var; extent; body; _ } ->
          let n =
            match Expr.const_int extent with
            | Some n -> float_of_int (max n 0)
            | None -> (
              try float_of_int (max (Expr.eval_int penv extent) 1)
              with _ -> 1.)
          in
          expr scale extent;
          Hashtbl.replace env var.Var.id (Expr.V_int 0);
          stmt (scale *. n) body;
          Hashtbl.remove env var.Var.id
        | If { cond; then_; else_ } ->
          expr scale cond;
          stmt scale then_;
          (match else_ with Some e -> stmt scale e | None -> ())
        | Let { var; value; body } ->
          (try Hashtbl.replace env var.Var.id (Expr.eval penv value)
           with _ -> ());
          expr scale value;
          stmt scale body;
          Hashtbl.remove env var.Var.id
        | Store { indices; value; _ } ->
          List.iter (expr scale) indices;
          expr scale value
        | Mma _ | Sync_threads | Comment _ -> ()
      in
      stmt 1. k.Kernel.body;
      let w' = float_of_int (b + 1) in
      let naive = Hashtbl.fold (fun _ wt acc -> acc +. wt) weights 0. in
      let union =
        Hashtbl.fold
          (fun id tbl acc ->
            let wt = Option.value (Hashtbl.find_opt weights id) ~default:0. in
            acc +. (wt *. float_of_int (Hashtbl.length tbl) /. w'))
          distinct 0.
      in
      if naive > 0. && union > 0. then
        best := Float.max !best (Float.min w' (naive /. union))
    done;
    !best
  end

(* --- Simplify.stmt: substitute each trivial Let into the remaining body --- *)

let m_simplified = Hidet_obs.Metrics.counter "ir.nodes_simplified"

let rec simplify_stmt (s : Stmt.t) : Stmt.t =
  let expr = Simplify.expr in
  match s with
  | Seq ss -> Stmt.seq (List.map simplify_stmt ss)
  | For { var; extent; unroll; body } ->
    Stmt.for_ ~unroll var (expr extent) (simplify_stmt body)
  | If { cond; then_; else_ } ->
    Stmt.if_ ?else_:(Option.map simplify_stmt else_) (expr cond)
      (simplify_stmt then_)
  | Let { var; value; body } -> (
    let value = expr value in
    match value with
    | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx ->
      Hidet_obs.Metrics.incr m_simplified;
      simplify_stmt (Stmt.subst var value body)
    | _ -> Stmt.let_ var value (simplify_stmt body))
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

(* --- Graph.node and Graph.consumers --------------------------------------- *)

module Graph = Hidet_graph.Graph

let graph_node g id =
  match List.find_opt (fun (n : Graph.node) -> n.Graph.id = id) (Graph.nodes g) with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Graph.node: no node %d" id)

let graph_consumers g id =
  List.filter_map
    (fun (n : Graph.node) ->
      if List.mem id n.Graph.inputs then Some n.Graph.id else None)
    (Graph.nodes g)

(* --- A compile without its memos ------------------------------------------ *)

module Cache = Hidet_sched.Schedule_cache
module Compiled = Hidet_sched.Compiled
module GC = Hidet_runtime.Group_compiler
module HE = Hidet.Hidet_engine
module Passes = Hidet_graph.Passes
module Plan = Hidet_runtime.Plan

(* Re-adding an entry replaces its slot, which drops its instance memo. *)
let drop_instance_memos (device : Hidet_gpu.Device.t) =
  let device = device.Hidet_gpu.Device.name in
  List.iter
    (fun key -> Option.iter (Cache.add ~device ~key) (Cache.find ~device ~key))
    (Cache.keys_for_device device)

(* [Hidet_engine.compile_plan]'s plan, with the instance memos dropped
   before every anchor is scheduled: every cache hit instantiates its
   winner anew, so no two groups get the same anchor kernel and neither the
   group memo nor a shared estimate can apply. *)
let compile_plan ?(options = HE.default_options) device g =
  let g = if options.HE.lower_convs then Passes.lower_conv_to_gemm g else g in
  let g = Passes.optimize g in
  let cfg = HE.group_config ~options device in
  let schedule_anchor g n =
    drop_instance_memos device;
    cfg.GC.schedule_anchor g n
  in
  GC.compile_graph { cfg with GC.schedule_anchor } g

(* Plan.latency without its memo: every step estimated. *)
let plan_latency ?fidelity device (plan : Plan.t) =
  List.fold_left
    (fun acc (s : Plan.step) -> acc +. Compiled.latency ?fidelity device s.Plan.compiled)
    0. plan.Plan.steps

(* --- Pipeline.effective_stages: flatten each loop body to an event list --- *)

type event = Prefetch | Compute | Stage

let rec contains_load_from scope (e : Expr.t) =
  match e with
  | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> false
  | Binop (_, a, b) -> contains_load_from scope a || contains_load_from scope b
  | Unop (_, a) -> contains_load_from scope a
  | Select (c, a, b) ->
    contains_load_from scope c || contains_load_from scope a
    || contains_load_from scope b
  | Load (buf, idx) ->
    buf.Buffer.scope = scope || List.exists (contains_load_from scope) idx

let rec events (s : Stmt.t) : event list =
  match s with
  | Seq ss -> List.concat_map events ss
  | For { body; _ } -> events body
  | If { then_; else_; _ } -> (
    events then_ @ match else_ with Some e -> events e | None -> [])
  | Let { body; _ } -> events body
  | Store { buf; value; _ } -> (
    match buf.Buffer.scope with
    | Buffer.Register | Buffer.Warp ->
      let g = contains_load_from Buffer.Global value in
      let c = contains_load_from Buffer.Shared value in
      (if g then [ Prefetch ] else []) @ if c then [ Compute ] else []
    | Buffer.Shared ->
      if contains_load_from Buffer.Global value then [] else [ Stage ]
    | Buffer.Global -> [])
  | Mma _ -> [ Compute ]
  | Sync_threads | Comment _ -> []

let loop_has_pattern body =
  let rec scan state = function
    | [] -> false
    | ev :: rest -> (
      match (state, ev) with
      | `Want_prefetch, Prefetch -> scan `Want_compute rest
      | `Want_compute, Compute -> scan `Want_stage rest
      | `Want_stage, Stage -> true
      | _ -> scan state rest)
  in
  scan `Want_prefetch (events body)

let rec has_overlap_pattern (s : Stmt.t) =
  match s with
  | Seq ss -> List.exists has_overlap_pattern ss
  | For { body; _ } -> loop_has_pattern body || has_overlap_pattern body
  | If { then_; else_; _ } -> (
    has_overlap_pattern then_
    || match else_ with Some e -> has_overlap_pattern e | None -> false)
  | Let { body; _ } -> has_overlap_pattern body
  | Store _ | Mma _ | Sync_threads | Comment _ -> false

let effective_stages (k : Kernel.t) =
  if k.pipeline_stages <= 1 then 1
  else if has_overlap_pattern k.body then k.pipeline_stages
  else 1

(* --- Matmul_template.check and config_to_string --------------------------- *)

module MT = Hidet_sched.Matmul_template
module Mapping = Hidet_task.Mapping

let load_mapping ~rows ~cols ~threads =
  if threads <= rows * cols && threads mod cols = 0 && rows mod (threads / cols) = 0
  then Some Mapping.(repeat [ rows / (threads / cols); 1 ] *> spatial [ threads / cols; cols ])
  else if cols mod threads = 0 then
    Some Mapping.(repeat [ rows; cols / threads ] *> spatial [ 1; threads ])
  else None

let check (cfg : MT.config) =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if cfg.block_m <= 0 || cfg.block_n <= 0 || cfg.block_k <= 0 then
    err "non-positive block tile"
  else if cfg.block_m mod cfg.warp_m <> 0 || cfg.block_n mod cfg.warp_n <> 0 then
    err "warp tile does not divide block tile"
  else if cfg.use_tensor_core && (cfg.warp_m mod 16 <> 0 || cfg.warp_n mod 16 <> 0)
  then err "tensor-core warp tile must be a multiple of 16x16"
  else if cfg.use_tensor_core && cfg.block_k mod 8 <> 0 then
    err "tensor-core block_k must be a multiple of 8"
  else if (not cfg.use_tensor_core)
          && (cfg.warp_m mod 4 <> 0 || cfg.warp_n mod 8 <> 0)
  then err "CUDA-core warp tile must be a multiple of 4x8"
  else if MT.num_warps cfg < 1 || MT.num_warps cfg > 16 then
    err "warps per block out of [1, 16]"
  else if cfg.split_k < 1 || cfg.split_k > 16 then err "split_k out of range"
  else if cfg.stages < 1 || cfg.stages > 4 then err "stages out of [1, 4]"
  else
    let bd = MT.block_dim cfg in
    if load_mapping ~rows:cfg.block_m ~cols:cfg.block_k ~threads:bd = None then
      err "no cooperative load mapping for the A tile"
    else if load_mapping ~rows:cfg.block_k ~cols:cfg.block_n ~threads:bd = None
    then err "no cooperative load mapping for the B tile"
    else if
      (not cfg.use_tensor_core)
      && cfg.warp_m / 4 * (cfg.warp_n / 8) > 128
    then err "register tile too large"
    else Ok ()

let config_to_string (cfg : MT.config) =
  Printf.sprintf "b%dx%dx%d_w%dx%d%s%s%s%s" cfg.block_m cfg.block_n cfg.block_k
    cfg.warp_m cfg.warp_n
    (match cfg.stages with 2 -> "_db" | 3 -> "_s3" | 4 -> "_s4" | _ -> "")
    (if cfg.split_k > 1 then Printf.sprintf "_sk%d" cfg.split_k else "")
    (if cfg.use_tensor_core then "_tc" else "")
    (if cfg.swizzle then "_swz" else "")
