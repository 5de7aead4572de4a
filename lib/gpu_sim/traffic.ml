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

let add a b =
  {
    global_load_bytes = a.global_load_bytes +. b.global_load_bytes;
    global_store_bytes = a.global_store_bytes +. b.global_store_bytes;
    global_ld_transactions = a.global_ld_transactions +. b.global_ld_transactions;
    shared_bytes = a.shared_bytes +. b.shared_bytes;
    flops = a.flops +. b.flops;
    mma_flops = a.mma_flops +. b.mma_flops;
    syncs = a.syncs +. b.syncs;
  }

let scale_counts s a =
  {
    global_load_bytes = s *. a.global_load_bytes;
    global_store_bytes = s *. a.global_store_bytes;
    global_ld_transactions = s *. a.global_ld_transactions;
    shared_bytes = s *. a.shared_bytes;
    flops = s *. a.flops;
    mma_flops = s *. a.mma_flops;
    syncs = s *. a.syncs;
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

(* --- probing a kernel at every block of the reuse window at once ----------

   The analysis walks the kernel once, at thread 0 with every loop index 0,
   and evaluates [Let] values, variable loop extents and global-load
   indices for all [w] block ids of the L2 reuse window in that one walk.
   A probe that does not depend on the block id is computed once; one that
   does is partially evaluated once into a function of the block id that
   is applied per block. Both follow [Expr.eval] exactly, failures
   included: [Fails] raises for every block, and a per-block function
   raises for the blocks where [Expr.eval] would. Free variables and
   loads read as zero. *)

type probe =
  | Const of Expr.value
  | Fails
  | Per_block of (int -> Expr.value)

(* A [Let] value that depends on the block id is kept per block; on a block
   where it fails to evaluate it reads as 0, like an unbound variable. *)
type binding = Value of Expr.value | Slots of Expr.value array

let at = function
  | Const v -> fun _ -> v
  | Fails -> fun _ -> raise Exit
  | Per_block f -> f

let lift1 f = function
  | Const v -> ( match f v with v -> Const v | exception _ -> Fails)
  | Fails -> Fails
  | Per_block g -> Per_block (fun b -> f (g b))

let lift2 f x y =
  match (x, y) with
  | Fails, _ | _, Fails -> Fails
  | Const a, Const b -> ( match f a b with v -> Const v | exception _ -> Fails)
  | _ ->
    let gx = at x and gy = at y in
    Per_block (fun b -> f (gx b) (gy b))

let truth v = Expr.V_bool (Expr.bool_of_value v)

let rec probe ~blocks env (e : Expr.t) =
  let probe = probe ~blocks env in
  match e with
  | Int n -> Const (V_int n)
  | Float f -> Const (V_float f)
  | Bool b -> Const (V_bool b)
  | Thread_idx -> Const (V_int 0)
  | Block_idx -> if blocks = 1 then Const (V_int 0) else Per_block (fun b -> V_int b)
  | Var v -> (
    match Hashtbl.find_opt env v.Var.id with
    | None -> Const (V_int 0)
    | Some (Value x) -> Const x
    | Some (Slots a) -> Per_block (Array.get a))
  | Unop (op, a) -> lift1 (Expr.unop_value op) (probe a)
  (* [And]/[Or] and [Select] evaluate their second operand (branch) only
     when [Expr.eval] would. *)
  | Binop (((And | Or) as op), a, b) -> (
    (* the value of [a] that decides the result alone *)
    let short = op = Or in
    match probe a with
    | Fails -> Fails
    | Const v when Expr.bool_of_value v = short -> Const (V_bool short)
    | Const _ -> lift1 truth (probe b)
    | Per_block fa ->
      let fb = at (probe b) in
      Per_block
        (fun blk ->
          if Expr.bool_of_value (fa blk) = short then V_bool short
          else truth (fb blk)))
  | Binop (op, a, b) -> lift2 (Expr.binop_value op) (probe a) (probe b)
  | Select (c, a, b) -> (
    match probe c with
    | Fails -> Fails
    | Const v -> if Expr.bool_of_value v then probe a else probe b
    | Per_block fc ->
      let fa = at (probe a) and fb = at (probe b) in
      Per_block (fun blk -> if Expr.bool_of_value (fc blk) then fa blk else fb blk))
  | Load (_, idx) ->
    (* every index is evaluated, then the load reads 0 *)
    List.fold_left
      (fun acc i -> lift2 (fun v _ -> v) acc (probe i))
      (Const (V_float 0.)) idx

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

type site = { weight : float;  (** loop-scaled bytes per thread *) index : probe }

(* The order in which [Hashtbl.fold] visits the keys 0 .. n-1 of a table
   created with size 8 and filled in that order. The sums below add their
   terms in this order, which is the order of the one-walk-per-block
   reference in test/oracle.ml (it keeps sites in such tables), so their
   float results match it bit for bit. *)
let fold_order n =
  let t = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    Hashtbl.add t i ()
  done;
  Array.of_list (List.rev (Hashtbl.fold (fun i () acc -> i :: acc) t []))

let reuse_factor w (sites : site array) =
  let n = Array.length sites in
  let order = fold_order n in
  let naive = Array.fold_left (fun acc i -> acc +. sites.(i).weight) 0. order in
  (* site i's distinct values so far: seen.(i * w) .. seen.(i * w + distinct.(i) - 1) *)
  let seen = Array.make (n * w) 0 and distinct = Array.make n 0 in
  let record i v =
    let base = i * w and d = distinct.(i) in
    let rec fresh j = j = d || (seen.(base + j) <> v && fresh (j + 1)) in
    if fresh 0 then begin
      seen.(base + d) <- v;
      distinct.(i) <- d + 1
    end
  in
  let unknown = ref 0 in
  let best = ref 1. in
  for b = 0 to w - 1 do
    Array.iteri
      (fun i s ->
        match at s.index b with
        | v -> record i (Expr.int_of_value v)
        | exception _ ->
          (* An unevaluable index counts as distinct per block (no reuse).
             Unknowns are numbered -1, -2, ... in block-major site order, in
             the same table as real values. *)
          incr unknown;
          record i (- !unknown))
      sites;
    (* A cache covering [w] blocks can always restrict itself to a smaller
       window, so the achievable reuse is the best ratio over any prefix
       window [b + 1 <= w] — which also makes the factor monotone
       non-decreasing in [window] (the raw ratio can dip when one more
       block opens a fresh operand panel, e.g. a new tile row). *)
    let w' = float_of_int (b + 1) in
    let union =
      Array.fold_left
        (fun acc i ->
          acc +. (sites.(i).weight *. float_of_int distinct.(i) /. w'))
        0. order
    in
    if naive > 0. && union > 0. then
      best := Float.max !best (Float.min w' (naive /. union))
  done;
  !best

(* --- the walk ------------------------------------------------------------------ *)

type analysis = { counts : counts; reuse : float }

let is_arith : Expr.binop -> bool = function
  | Add | Sub | Mul | Div | Mod | Min | Max -> true
  | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> false

let analyze ~window (k : Kernel.t) =
  let w = max 1 (min window k.Kernel.grid_dim) in
  (* variable id -> its probe value; loop indices are 0 *)
  let env = Hashtbl.create 16 in
  let probe = probe ~blocks:w env in
  let sites = ref [] in
  (* Loads anywhere in an expression; FLOPs only in value position
     ([in_value] is false inside index computations). Sub-expressions are
     walked left to right, so global load sites are numbered in a fixed
     traversal order. *)
  let rec expr ~in_value scale (e : Expr.t) =
    match e with
    | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> zero
    | Binop (op, a, b) ->
      let ca = expr ~in_value scale a in
      let c = add ca (expr ~in_value scale b) in
      if in_value && is_arith op then { c with flops = c.flops +. 1. } else c
    | Unop (op, a) ->
      let c = expr ~in_value scale a in
      let cost =
        match op with
        | Neg | Not | Abs -> 1.
        | Exp | Log | Sqrt | Tanh | Erf -> 4. (* SFU-class instruction *)
      in
      if in_value then { c with flops = c.flops +. cost } else c
    | Select (cond, a, b) ->
      let cc = expr ~in_value:false scale cond in
      let ca = expr ~in_value scale a in
      add cc (add ca (expr ~in_value scale b))
    | Load (buf, indices) -> (
      let c =
        List.fold_left
          (fun acc i -> add acc (expr ~in_value:false scale i))
          zero indices
      in
      let bytes = float_of_int (Dtype.size_bytes buf.Buffer.elt) in
      match buf.Buffer.scope with
      | Buffer.Global ->
        let flat = flatten_index buf indices in
        if w > 1 then
          sites := { weight = bytes *. scale; index = probe flat } :: !sites;
        {
          c with
          global_load_bytes = c.global_load_bytes +. bytes;
          global_ld_transactions =
            c.global_ld_transactions
            +. effective_factor (coalescing_stride flat);
        }
      | Buffer.Shared | Buffer.Warp ->
        { c with shared_bytes = c.shared_bytes +. bytes }
      | Buffer.Register -> c)
  in
  let rec stmt scale (s : Stmt.t) =
    match s with
    | Seq ss -> List.fold_left (fun acc x -> add acc (stmt scale x)) zero ss
    | For { var; extent; body; _ } ->
      let n =
        match Expr.const_int extent with
        | Some n -> float_of_int (max n 0)
        | None -> (
          (* Variable extents (e.g. split-k trip counts) evaluate at block 0. *)
          match at (probe extent) 0 with
          | v -> float_of_int (max (Expr.int_of_value v) 1)
          | exception _ -> 1.)
      in
      let c = expr ~in_value:false scale extent in
      (* A loop index averages n/2 over the iterations; probe with 0. *)
      Hashtbl.replace env var.Var.id (Value (V_int 0));
      let cb = stmt (scale *. n) body in
      Hashtbl.remove env var.Var.id;
      add c (scale_counts n cb)
    | If { cond; then_; else_ } ->
      (* Divergent warps execute both paths serially: count both. *)
      let c = expr ~in_value:false scale cond in
      let c = add c (stmt scale then_) in
      (match else_ with Some e -> add c (stmt scale e) | None -> c)
    | Let { var; value; body } ->
      (match probe value with
      | Const v -> Hashtbl.replace env var.Var.id (Value v)
      | Fails -> ()
      | Per_block f ->
        Hashtbl.replace env var.Var.id
          (Slots (Array.init w (fun b -> try f b with _ -> Expr.V_int 0))));
      let c = expr ~in_value:(Dtype.is_float var.Var.dtype) scale value in
      let c = add c (stmt scale body) in
      Hashtbl.remove env var.Var.id;
      c
    | Store { buf; indices; value } -> (
      let ci = List.map (expr ~in_value:false scale) indices in
      let c = List.fold_left add (expr ~in_value:true scale value) ci in
      let bytes = float_of_int (Dtype.size_bytes buf.Buffer.elt) in
      match buf.Buffer.scope with
      | Buffer.Global -> { c with global_store_bytes = c.global_store_bytes +. bytes }
      | Buffer.Shared | Buffer.Warp -> { c with shared_bytes = c.shared_bytes +. bytes }
      | Buffer.Register -> c)
    | Mma m ->
      let flops = 2. *. float_of_int (m.m * m.n * m.k) in
      (* The warp streams the A and B operand tiles from shared memory; the C
         fragment stays in registers. Fragments are reused across adjacent MMA
         tiles (ldmatrix amortization), modeled as a 0.5 factor. *)
      let tile_bytes = 4. *. float_of_int ((m.m * m.k) + (m.k * m.n)) *. 0.5 in
      { zero with mma_flops = flops; shared_bytes = tile_bytes /. 32. }
    | Sync_threads -> { zero with syncs = 1. }
    | Comment _ -> zero
  in
  let counts = stmt 1. k.Kernel.body in
  let reuse =
    if w = 1 then 1. else reuse_factor w (Array.of_list (List.rev !sites))
  in
  { counts; reuse }

let kernel k = (analyze ~window:1 k).counts
let block_reuse ~window k = (analyze ~window k).reuse
