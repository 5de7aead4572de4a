open Hidet_ir

type counts = {
  global_load_bytes : float;
  global_store_bytes : float;
  global_ld_transactions : float;
  shared_bytes : float;
  flops : float;
  mma_flops : float;
  syncs : float;
}

let zero =
  {
    global_load_bytes = 0.;
    global_store_bytes = 0.;
    global_ld_transactions = 0.;
    shared_bytes = 0.;
    flops = 0.;
    mma_flops = 0.;
    syncs = 0.;
  }

let flatten_index (b : Hidet_ir.Buffer.t) indices =
  List.fold_left2
    (fun acc idx dim -> Expr.add (Expr.mul acc (Expr.int dim)) idx)
    (Expr.int 0) indices b.Buffer.dims

(* Thread [tid] of block 0 with every variable and load reading zero. *)
let zero_env tid =
  {
    Expr.lookup = (fun _ -> Expr.V_int 0);
    load = (fun _ _ -> Expr.V_float 0.);
    thread_idx = tid;
    block_idx = 0;
  }

let coalescing_stride e =
  try
    let v0 = Expr.eval_int (zero_env 0) e in
    let v1 = Expr.eval_int (zero_env 1) e in
    abs (v1 - v0)
  with _ -> 1

let effective_factor stride =
  if stride = 0 then 0.25 (* broadcast: one transaction serves the warp *)
  else if stride = 1 then 1.0
  else Float.min 8.0 (float_of_int stride)

(* --- probing a kernel at thread 0 with every loop index 0 --------------------

   The walk evaluates [Let] values, variable loop extents and global-load
   indices at thread 0 with every loop index 0, on the block ids of the L2
   reuse window; free variables and loads read as zero. It follows
   [Expr.eval] exactly, failures included, on every block at once and
   without building values: [vint] walks an expression once and computes
   unboxed ints, one per block (a lane) where the expression reads the
   block id or a block-dependent binding, and one for all blocks elsewhere.
   A failure that is the same on every block raises. Index arithmetic is
   all [vint] knows: it gives up ([Slow]) on anything else (conditions,
   booleans, floats, loads, negation; none of them occurs in the zoo's
   bindings and indices) and on a failure on some blocks only. Then
   [Expr.eval] itself evaluates the expression again block by block. *)

exception Slow

(* A variable's value: the same on every block, or one per block. An
   unbound variable reads [Int 0]. *)
type binding = Int of int | Ints of int array | Values of Expr.value array

(* Variable id -> binding, at most one per id (as a [Hashtbl] used with
   [replace] and [remove]). Ids are positive counters, and the few
   variables bound at a time are usually close together: a variable sits in
   slot [id mod 32] unless another one holds it, and in [overflow] then. *)
type env = {
  ids : int array;  (** 0 where the slot is free *)
  bindings : binding array;
  mutable overflow : (int * binding) list;
}

let slots = 32
let new_env () = { ids = Array.make slots 0; bindings = Array.make slots (Int 0); overflow = [] }

let lookup env id =
  let i = id land (slots - 1) in
  if env.ids.(i) = id then env.bindings.(i)
  else
    match env.overflow with
    | [] -> Int 0
    | o -> Option.value (List.assoc_opt id o) ~default:(Int 0)

let replace env id b =
  let i = id land (slots - 1) in
  if env.ids.(i) = id then env.bindings.(i) <- b
  else if env.ids.(i) = 0 && not (List.mem_assoc id env.overflow) then begin
    env.ids.(i) <- id;
    env.bindings.(i) <- b
  end
  else env.overflow <- (id, b) :: List.remove_assoc id env.overflow

let remove env id =
  let i = id land (slots - 1) in
  if env.ids.(i) = id then env.ids.(i) <- 0
  else env.overflow <- List.remove_assoc id env.overflow

type probe = {
  env : env;
  lanes : int;
  stride : bool;
      (** the lanes are threads 0 and 1 at block 0 with every variable at
          0, as in {!coalescing_stride}, rather than blocks at thread 0 *)
  mutable scalar : int;  (** [vint]'s result when it is the same on every lane *)
  mutable rows : int array;
      (** [vint]'s per-lane results: lane [l] of row [r] at [r * lanes + l] *)
}

(* The offset of row [r], which is made to exist. *)
let row p r =
  let need = (r + 1) * p.lanes in
  if Array.length p.rows < need then begin
    let rows = Array.make (2 * need) 0 in
    Array.blit p.rows 0 rows 0 (Array.length p.rows);
    p.rows <- rows
  end;
  r * p.lanes

let scalar p n =
  p.scalar <- n;
  false

(* What [Expr.eval] does with two ints. *)
let arith (op : Expr.binop) x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> x / y
  | Mod -> x mod y
  | Min -> Int.min x y
  | Max -> Int.max x y
  | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> invalid_arg "Traffic.arith"

(* [op] on two operands, each the same on every lane (the flag is false,
   the value given) or in rows [r] and [r + 1]. Like [vint]'s result. The
   commonest index arithmetic gets its own loop. *)
let combine p r (op : Expr.binop) vx sx vy sy =
  if not (vx || vy) then scalar p (arith op sx sy)
  else begin
    let rows = p.rows and w = p.lanes and x = r * p.lanes in
    let last = x + p.lanes - 1 in
    (match (op, vx, vy) with
    | Add, true, true ->
      for l = x to last do
        rows.(l) <- rows.(l) + rows.(l + w)
      done
    | Add, true, false ->
      for l = x to last do
        rows.(l) <- rows.(l) + sy
      done
    | Mul, true, false ->
      for l = x to last do
        rows.(l) <- rows.(l) * sy
      done
    | _ ->
      for l = x to last do
        let y = if vy then rows.(l + w) else sy in
        (* a division by 0 on some lanes only *)
        if y = 0 && vy && (op = Div || op = Mod) then raise Slow;
        rows.(l) <- arith op (if vx then rows.(l) else sx) y
      done);
    true
  end

(* [Expr.int_of_value (Expr.eval e)] on the probe's lanes: [false] with
   the value in [p.scalar] when it is the same on every lane, or [true] with
   it in row [r] (rows above [r] are scratch). *)
let rec vint p r (e : Expr.t) =
  match e with
  | Int n -> scalar p n
  | Thread_idx when not p.stride -> scalar p 0
  | Block_idx when p.stride || p.lanes = 1 -> scalar p 0
  | Thread_idx | Block_idx ->
    let base = row p r in
    for l = 0 to p.lanes - 1 do
      p.rows.(base + l) <- l
    done;
    true
  | Var v -> (
    if p.stride then scalar p 0
    else
      match lookup p.env v.Var.id with
      | Int n -> scalar p n
      | Ints a when p.lanes = 1 -> scalar p a.(0)
      | Ints a ->
        let base = row p r in
        for l = 0 to p.lanes - 1 do
          p.rows.(base + l) <- a.(l)
        done;
        true
      | Values _ -> raise Slow)
  | Binop (((Add | Sub | Mul | Div | Mod | Min | Max) as op), x, y) ->
    let vx = vint p r x in
    let sx = p.scalar in
    let vy = vint p (r + 1) y in
    combine p r op vx sx vy p.scalar
  | Float _ | Bool _ | Load _ | Binop _ | Unop _ | Select _ -> raise Slow

(* [Expr.eval] at thread [tid] and block [block], for what [vint] gives up
   on. *)
let eval p ?(tid = 0) ~block e =
  let lookup (v : Var.t) : Expr.value =
    if p.stride then V_int 0
    else
      match lookup p.env v.Var.id with
      | Int n -> V_int n
      | Ints a -> V_int a.(block)
      | Values a -> a.(block)
  in
  Expr.eval
    { lookup; load = (fun _ _ -> V_float 0.); thread_idx = tid; block_idx = block }
    e

(* [vint] of [flatten_index buf indices], without building it. Buffer dims
   are positive, so [flatten_index]'s folding constructors drop no operand
   that can fail, and on ints they compute this plain sum of products. *)
let vflat p (buf : Buffer.t) indices =
  let rec go v indices dims =
    match (indices, dims) with
    | i :: indices, d :: dims ->
      let s = p.scalar in
      let vi = vint p 1 i in
      if not (v || vi) then p.scalar <- (s * d) + p.scalar
      else begin
        let si = p.scalar and base = row p 0 in
        for l = base to base + p.lanes - 1 do
          p.rows.(l) <-
            ((if v then p.rows.(l) else s) * d)
            + if vi then p.rows.(l + p.lanes) else si
        done
      end;
      go (v || vi) indices dims
    | _ -> v
  in
  p.scalar <- 0;
  go false indices buf.dims

(* [Expr.eval_int] on a one-lane probe, where [vint] leaves every result in
   [p.scalar]; raises where it fails. *)
let int_at p e =
  match vint p 0 e with
  | _ -> p.scalar
  | exception Slow -> Expr.int_of_value (eval p ~block:0 e)

(* [coalescing_stride (flatten_index buf indices)] on a probe whose two
   lanes are threads 0 and 1 and whose variables read 0. *)
let flat_stride p buf indices =
  match vflat p buf indices with
  | false -> 0
  | true -> abs (p.rows.(1) - p.rows.(0))
  | exception Slow -> (
    let flat = flatten_index buf indices in
    let at tid = Expr.int_of_value (eval p ~tid ~block:0 flat) in
    match abs (at 1 - at 0) with s -> s | exception _ -> 1)
  | exception _ -> 1

(* Bind a [Let]: a block where the value fails reads 0, and a failure on
   every block leaves the variable unbound, which reads 0 too. *)
let bind p id e =
  match vint p 0 e with
  | false -> replace p.env id (Int p.scalar)
  | true -> replace p.env id (Ints (Array.sub p.rows 0 p.lanes))
  | exception Slow ->
    replace p.env id
      (Values
         (Array.init p.lanes (fun block ->
              try eval p ~block e with _ -> Expr.V_int 0)))
  | exception _ -> ()

(* --- L2 block reuse ---------------------------------------------------------

   How much of the global-load traffic of a window of consecutively
   launched blocks is shared? The flattened index a global load site
   touches at thread 0 (loop indices at 0) identifies the operand panel the
   block streams. A site whose value repeats across the window (e.g. the A
   tile of blocks in the same block-row) is served by L2 after the first
   block; a site with [d] distinct values across a window of [w] blocks
   costs [d/w] of its naive DRAM traffic.

   This is what makes thread-block swizzle visible to the latency model:
   under row-major launch order a window of 8 blocks spans 1 A-panel and
   8 B-panels, while the panelized swizzle (4 block-rows per column)
   spans 4 A-panels and 2 B-panels — less union traffic for the same
   per-block byte count. *)

(* A global load site: its flattened index on each block of the window,
   where it evaluates. *)
type site = {
  weight : float;  (** loop-scaled bytes per thread *)
  values : int array;
  failed : Bytes.t;  (** ['\001'] where the index fails *)
}

let site p buf indices weight =
  let values = Array.make p.lanes 0 and failed = Bytes.make p.lanes '\000' in
  (match vflat p buf indices with
  | v ->
    for b = 0 to p.lanes - 1 do
      values.(b) <- (if v then p.rows.(b) else p.scalar)
    done
  | exception Slow ->
    let flat = flatten_index buf indices in
    for block = 0 to p.lanes - 1 do
      match eval p ~block flat with
      | v -> values.(block) <- Expr.int_of_value v
      | exception _ -> Bytes.set failed block '\001'
    done
  | exception _ -> Bytes.fill failed 0 p.lanes '\001');
  { weight; values; failed }

(* The order in which [Hashtbl.fold] visits the keys 0 .. n-1 of an
   unrandomized table created with size 8 and filled in that order. The
   sums below add their terms in this order, which is the order of the
   one-walk-per-block reference in test/oracle.ml (it keeps sites in such
   tables), so their float results match it bit for bit. The fold goes
   bucket by bucket, and a bucket holds its later keys first: [add]
   prepends and a resize keeps each bucket's order. A key's bucket is its
   hash modulo the bucket count, which starts at 16 and doubles once the
   table holds more than twice as many keys. *)
let fold_order n =
  let buckets = ref 16 in
  while n > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let bucket = Array.init n (fun i -> Hashtbl.hash i land (!buckets - 1)) in
  let order = Array.make n 0 and next = ref 0 in
  for b = 0 to !buckets - 1 do
    for i = n - 1 downto 0 do
      if bucket.(i) = b then begin
        order.(!next) <- i;
        incr next
      end
    done
  done;
  order

let reuse_factor w (sites : site array) =
  let n = Array.length sites in
  let order = fold_order n in
  let naive = ref 0. in
  for j = 0 to n - 1 do
    naive := !naive +. sites.(order.(j)).weight
  done;
  (* Site i's distinct values so far are the first distinct.(i) of its
     [values]: at block b they are at most b, so they overwrite only values
     of blocks already read. *)
  let distinct = Array.make n 0 in
  let unknown = ref 0 in
  let best = ref 1. in
  for b = 0 to w - 1 do
    for i = 0 to n - 1 do
      let s = sites.(i) and d = distinct.(i) in
      let v =
        if Bytes.get s.failed b = '\000' then s.values.(b)
        else begin
          (* An unevaluable index counts as distinct per block (no reuse).
             Unknowns are numbered -1, -2, ... in block-major site order,
             among the real values. *)
          incr unknown;
          - !unknown
        end
      in
      let j = ref 0 in
      while !j < d && s.values.(!j) <> v do
        incr j
      done;
      if !j = d then begin
        s.values.(d) <- v;
        distinct.(i) <- d + 1
      end
    done;
    (* A cache covering [w] blocks can always restrict itself to a smaller
       window, so the achievable reuse is the best ratio over any prefix
       window [b + 1 <= w] — which also makes the factor monotone
       non-decreasing in [window] (the raw ratio can dip when one more
       block opens a fresh operand panel, e.g. a new tile row). *)
    let w' = float_of_int (b + 1) in
    let union = ref 0. in
    for j = 0 to n - 1 do
      let i = order.(j) in
      union := !union +. (sites.(i).weight *. float_of_int distinct.(i) /. w')
    done;
    if !naive > 0. && !union > 0. then
      best := Float.max !best (Float.min w' (!naive /. !union))
  done;
  !best

(* --- the walk ------------------------------------------------------------------

   The counts go into one all-float record, and each leaf adds [scale]
   times its count, [scale] being the product of the enclosing loop
   extents. That equals summing a record per node and scaling each loop
   body's sum, bit for bit: every count is an integer or a dyadic multiple
   (0.25, 0.5, 1/32) of a product of loop extents far below 2^53, so every
   partial sum is exact and the order of the additions cannot matter. *)

type acc = {
  mutable global_load_bytes : float;
  mutable global_store_bytes : float;
  mutable global_ld_transactions : float;
  mutable shared_bytes : float;
  mutable flops : float;
  mutable mma_flops : float;
  mutable syncs : float;
}

type analysis = { counts : counts; reuse : float }

let is_arith : Expr.binop -> bool = function
  | Add | Sub | Mul | Div | Mod | Min | Max -> true
  | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> false

let analyze ~window (k : Kernel.t) =
  let blocks = max 1 (min window k.Kernel.grid_dim) in
  let p =
    {
      env = new_env ();
      lanes = blocks;
      stride = false;
      scalar = 0;
      (* shared by the three probes below while none grows it *)
      rows = Array.make (8 * max blocks 2) 0;
    }
  in
  (* block 0 alone, for variable extents, and threads 0 and 1 with every
     variable at 0, for coalescing strides *)
  let p0 = { p with lanes = 1 } in
  let pz = { p with lanes = 2; stride = true } in
  let sites = ref [] in
  let a =
    {
      global_load_bytes = 0.;
      global_store_bytes = 0.;
      global_ld_transactions = 0.;
      shared_bytes = 0.;
      flops = 0.;
      mma_flops = 0.;
      syncs = 0.;
    }
  in
  let shared scale (buf : Buffer.t) =
    a.shared_bytes <-
      a.shared_bytes +. (scale *. float_of_int (Dtype.size_bytes buf.elt))
  in
  (* Loads anywhere in an expression; FLOPs only in value position
     ([in_value] is false inside index computations). Sub-expressions are
     walked left to right, so global load sites are numbered in a fixed
     traversal order. *)
  let rec expr ~in_value scale (e : Expr.t) =
    match e with
    | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> ()
    | Binop (op, x, y) ->
      expr ~in_value scale x;
      expr ~in_value scale y;
      if in_value && is_arith op then a.flops <- a.flops +. scale
    | Unop (op, x) ->
      expr ~in_value scale x;
      if in_value then begin
        let cost =
          match op with
          | Neg | Not | Abs -> 1.
          | Exp | Log | Sqrt | Tanh | Erf -> 4. (* SFU-class instruction *)
        in
        a.flops <- a.flops +. (scale *. cost)
      end
    | Select (cond, x, y) ->
      expr ~in_value:false scale cond;
      expr ~in_value scale x;
      expr ~in_value scale y
    | Load (buf, indices) -> (
      indexes scale indices;
      match buf.Buffer.scope with
      | Buffer.Global ->
        (* as [flatten_index] does on a rank mismatch *)
        if List.compare_lengths indices buf.dims <> 0 then
          invalid_arg "List.fold_left2";
        let bytes = float_of_int (Dtype.size_bytes buf.elt) in
        a.global_load_bytes <- a.global_load_bytes +. (scale *. bytes);
        a.global_ld_transactions <-
          a.global_ld_transactions
          +. (scale *. effective_factor (flat_stride pz buf indices));
        if blocks > 1 then sites := site p buf indices (bytes *. scale) :: !sites
      | Buffer.Shared | Buffer.Warp -> shared scale buf
      | Buffer.Register -> ())
  and indexes scale = function
    | [] -> ()
    | i :: rest ->
      expr ~in_value:false scale i;
      indexes scale rest
  in
  let rec stmt scale (s : Stmt.t) =
    match s with
    | Seq ss -> stmts scale ss
    | For { var; extent; body; _ } ->
      let n =
        match extent with
        | Int n -> float_of_int (max n 0)
        | _ -> (
          (* Variable extents (e.g. split-k trip counts) evaluate at block 0. *)
          match int_at p0 extent with
          | v -> float_of_int (max v 1)
          | exception _ -> 1.)
      in
      expr ~in_value:false scale extent;
      (* A loop index averages n/2 over the iterations; probe with 0. *)
      replace p.env var.Var.id (Int 0);
      stmt (scale *. n) body;
      remove p.env var.Var.id
    | If { cond; then_; else_ } ->
      (* Divergent warps execute both paths serially: count both. *)
      expr ~in_value:false scale cond;
      stmt scale then_;
      Option.iter (stmt scale) else_
    | Let { var; value; body } ->
      bind p var.Var.id value;
      expr ~in_value:(Dtype.is_float var.Var.dtype) scale value;
      stmt scale body;
      remove p.env var.Var.id
    | Store { buf; indices; value } -> (
      indexes scale indices;
      expr ~in_value:true scale value;
      match buf.Buffer.scope with
      | Buffer.Global ->
        a.global_store_bytes <-
          a.global_store_bytes
          +. (scale *. float_of_int (Dtype.size_bytes buf.elt))
      | Buffer.Shared | Buffer.Warp -> shared scale buf
      | Buffer.Register -> ())
    | Mma m ->
      a.mma_flops <- a.mma_flops +. (scale *. (2. *. float_of_int (m.m * m.n * m.k)));
      (* The warp streams the A and B operand tiles from shared memory; the C
         fragment stays in registers. Fragments are reused across adjacent MMA
         tiles (ldmatrix amortization), modeled as a 0.5 factor. *)
      let tile_bytes = 4. *. float_of_int ((m.m * m.k) + (m.k * m.n)) *. 0.5 in
      a.shared_bytes <- a.shared_bytes +. (scale *. (tile_bytes /. 32.))
    | Sync_threads -> a.syncs <- a.syncs +. scale
    | Comment _ -> ()
  and stmts scale = function
    | [] -> ()
    | s :: rest ->
      stmt scale s;
      stmts scale rest
  in
  stmt 1. k.Kernel.body;
  let counts : counts =
    {
      global_load_bytes = a.global_load_bytes;
      global_store_bytes = a.global_store_bytes;
      global_ld_transactions = a.global_ld_transactions;
      shared_bytes = a.shared_bytes;
      flops = a.flops;
      mma_flops = a.mma_flops;
      syncs = a.syncs;
    }
  in
  let reuse =
    if blocks = 1 then 1. else reuse_factor blocks (Array.of_list (List.rev !sites))
  in
  { counts; reuse }

let kernel k = (analyze ~window:1 k).counts
let block_reuse ~window k = (analyze ~window k).reuse
