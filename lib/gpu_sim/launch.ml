open Hidet_ir
module Metrics = Hidet_obs.Metrics
module Trace = Hidet_obs.Trace

type slots = {
  slot_of : (int, int) Hashtbl.t;
  nbufs : int;
  global_slots : (int * Buffer.t) array;
  shared_slots : (int * Buffer.t) array;
  warp_slots : (int * Buffer.t) array;
  reg_slots : (int * Buffer.t) array;
}

let slots (k : Kernel.t) =
  let slot_of = Hashtbl.create 16 in
  let next = ref 0 in
  let assign bufs =
    Array.of_list
      (List.map
         (fun (b : Buffer.t) ->
           let s = !next in
           incr next;
           Hashtbl.replace slot_of b.Buffer.id s;
           (s, b))
         bufs)
  in
  let global_slots = assign k.params in
  let shared_slots = assign k.shared in
  let warp_slots = assign k.warp_bufs in
  let reg_slots = assign k.regs in
  { slot_of; nbufs = !next; global_slots; shared_slots; warp_slots; reg_slots }

(* ------------------------------------------------------------------ *)
(* Phase analysis                                                     *)
(* ------------------------------------------------------------------ *)

let rec has_sync (s : Stmt.t) =
  match s with
  | Stmt.Sync_threads -> true
  | Seq ss -> List.exists has_sync ss
  | For { body; _ } | Let { body; _ } -> has_sync body
  | If { then_; else_; _ } ->
    has_sync then_ || Option.fold ~none:false ~some:has_sync else_
  | Store _ | Mma _ | Comment _ -> false

(* The type [Expr.eval] gives a block-uniform expression, or [None] when
   it is not one. [env] types the uniform variables in scope. Bool
   operands to arithmetic, [Neg] and [Abs] are excluded with the rest of
   what can raise, and so is a [Select] of an int and a float, whose type
   [Expr.eval] decides at run time. *)
type uty = U_int | U_float | U_bool

module Int_map = Map.Make (Int)

let rec uniform_ty env (e : Expr.t) =
  let num x =
    match uniform_ty env x with Some (U_int | U_float) as t -> t | _ -> None
  in
  match e with
  | Expr.Int _ | Block_idx -> Some U_int
  | Float _ -> Some U_float
  | Bool _ -> Some U_bool
  | Var v -> Int_map.find_opt v.Var.id env
  | Thread_idx | Load _ -> None
  | Select (c, a, b) -> (
    match (uniform_ty env c, uniform_ty env a, uniform_ty env b) with
    | Some _, Some ta, Some tb when ta = tb -> Some ta
    | _ -> None)
  | Unop (Not, a) -> Option.map (fun _ -> U_bool) (uniform_ty env a)
  | Unop ((Neg | Abs), a) -> num a
  | Unop (_, a) -> Option.map (fun _ -> U_float) (uniform_ty env a)
  | Binop ((And | Or), a, b) -> (
    match (uniform_ty env a, uniform_ty env b) with
    | Some _, Some _ -> Some U_bool
    | _ -> None)
  | Binop (op, a, b) -> (
    let divisor_ok =
      match (op, b) with
      | (Div | Mod), Expr.Int d -> d <> 0
      | (Div | Mod), Float f -> f <> 0.
      | (Div | Mod), _ -> false
      | _ -> true
    in
    match (divisor_ok, num a, num b) with
    | true, Some ta, Some tb -> (
      match op with
      | Lt | Le | Gt | Ge | Eq | Ne -> Some U_bool
      | _ -> Some (if ta = U_int && tb = U_int then U_int else U_float))
    | _ -> None)

(* The backends ask [uniform v] at each [Let] on a barrier path, so the
   answer must hold for every binding of [v] there: a variable bound both
   to a uniform and to a per-thread value on barrier paths (the IR allows
   rebinding) makes the kernel not phased. A per-thread [Let] also hides
   an outer uniform binding of its variable from the body. *)
let phased (k : Kernel.t) =
  let uniform = Hashtbl.create 8 in
  let bind (v : Var.t) u =
    match Hashtbl.find_opt uniform v.Var.id with
    | Some u' when u' <> u -> false
    | _ ->
      Hashtbl.replace uniform v.Var.id u;
      true
  in
  let rec ok env (s : Stmt.t) =
    (not (has_sync s))
    ||
    match s with
    | Stmt.Sync_threads -> true
    | Seq ss -> List.for_all (ok env) ss
    | Let { var; value; body } -> (
      match uniform_ty env value with
      | Some t -> bind var true && ok (Int_map.add var.Var.id t env) body
      | None -> bind var false && ok (Int_map.remove var.Var.id env) body)
    | For { var; extent; body; _ } ->
      uniform_ty env extent <> None
      && bind var true
      && ok (Int_map.add var.Var.id U_int env) body
    | If { cond; then_; else_ } ->
      uniform_ty env cond <> None
      && ok env then_
      && Option.fold ~none:true ~some:(ok env) else_
    | Store _ | Mma _ | Comment _ -> true
  in
  if has_sync k.body && ok Int_map.empty k.body then
    Some (fun (v : Var.t) -> Hashtbl.find_opt uniform v.Var.id = Some true)
  else None

(* ------------------------------------------------------------------ *)
(* Register-tile nests                                                *)
(* ------------------------------------------------------------------ *)

(* A larger nest keeps the general path: this bounds the tables a nest
   holds. *)
let max_nest_stores = 4096

(* Per-element constants and invariant parts larger than this keep the
   general path, so no range check can overflow. *)
let max_nest_index = 1 lsl 40

(* An index over the nest's loop variables, bound in [env], as a constant:
   the hoisting set's operators, with [Expr.eval]'s own arithmetic. *)
let rec const_index env (e : Expr.t) =
  match e with
  | Expr.Int n -> Some n
  | Var v -> List.assoc_opt v.Var.id env
  | Binop (((Add | Sub | Mul | Min | Max | Div | Mod) as op), a, b) -> (
    match (const_index env a, const_index env b) with
    | Some _, Some 0 when op = Div || op = Mod -> None
    | Some x, Some y -> (
      match Expr.eval_int_binop op x y with V_int n -> Some n | _ -> None)
    | _ -> None)
  | Unop (Neg, a) -> Option.map (fun x -> -x) (const_index env a)
  | Unop (Abs, a) -> Option.map Stdlib.abs (const_index env a)
  | _ -> None

(* Whether an index built from the hoisting set's operators mentions a
   nest variable (one of [lv]) and whether it mentions anything else that
   is not a constant; [None] for any other node. *)
let rec mentions lv (e : Expr.t) =
  match e with
  | Expr.Int _ -> Some (false, false)
  | Var v -> Some (if List.mem v.Var.id lv then (true, false) else (false, true))
  | Thread_idx | Block_idx -> Some (false, true)
  | Binop ((Add | Sub | Mul | Min | Max | Div | Mod), a, b) -> (
    match (mentions lv a, mentions lv b) with
    | Some (la, oa), Some (lb, ob) -> Some (la || lb, oa || ob)
    | _ -> None)
  | Unop ((Neg | Abs), a) -> mentions lv a
  | _ -> None

(* An index as [inv + lin]: [inv] (absent: 0) mentions no nest variable and
   [lin] nothing but nest variables and constants. Only [Add], [Sub], [Neg]
   and [Mul] by a constant split a subexpression that mentions both; they
   are ring operations on OCaml's ints, so [inv + lin] is the index's own
   value. [None] when the index is not affine in that sense. *)
let rec split lv (e : Expr.t) =
  match mentions lv e with
  | None -> None
  | Some (false, true) -> Some (Some e, Expr.Int 0)
  | Some (_, false) -> Some (None, e)
  | Some (true, true) -> (
    let constant x = mentions lv x = Some (false, false) in
    match e with
    | Binop (((Add | Sub) as op), a, b) -> (
      match (split lv a, split lv b) with
      | Some (ia, la), Some (ib, lb) ->
        let inv =
          match (ia, ib) with
          | i, None -> i
          | None, Some ib -> Some (if op = Add then ib else Expr.Unop (Neg, ib))
          | Some ia, Some ib -> Some (Expr.Binop (op, ia, ib))
        in
        Some (inv, Expr.Binop (op, la, lb))
      | _ -> None)
    | Binop (Mul, a, k) when constant k -> scale lv a k
    | Binop (Mul, k, a) when constant k -> scale lv a k
    | Unop (Neg, a) ->
      Option.map
        (fun (i, l) -> (Option.map (fun i -> Expr.Unop (Neg, i)) i, Expr.Unop (Neg, l)))
        (split lv a)
    | _ -> None)

and scale lv a k =
  Option.map
    (fun (i, l) ->
      (Option.map (fun i -> Expr.Binop (Mul, i, k)) i, Expr.Binop (Mul, l, k)))
    (split lv a)

type nest_kind = Fma | Copy | Fill
type nest_dim = { inv : Expr.t; lo : int; hi : int; stride : int }
type nest_role = { buf : Buffer.t; base : int; dims : nest_dim list }

type nest = {
  kind : nest_kind;
  statements : int;
  roles : nest_role array;
  deltas : int array;
  fills : float array;
}

(* The buffer accesses of a nest's store in role order (the stored one
   first), and a fill's value. *)
let nest_store (s : Stmt.t) =
  match s with
  | Stmt.Store
      {
        buf;
        indices;
        value = Binop (Add, Load (bx, ix), Binop (Mul, Load (by, iy), Load (bz, iz)));
      } ->
    Some (Fma, [ (buf, indices); (bx, ix); (by, iy); (bz, iz) ], 0.)
  | Store { buf; indices; value = Load (bs, is) } ->
    Some (Copy, [ (buf, indices); (bs, is) ], 0.)
  | Store { buf; indices; value = Float f } -> Some (Fill, [ (buf, indices) ], f)
  | Store { buf; indices; value = Int n } ->
    Some (Fill, [ (buf, indices) ], float_of_int n)
  | _ -> None

let nest (s : Stmt.t) =
  let unrolled n = n >= 0 && n <= Unroll.default_threshold in
  (* The first store's kind, buffers and [inv] parts, the stores analysed
     so far (by node), and per role and dimension the least and greatest
     element constant. *)
  let shape = ref None and seen = ref [] and bounds = ref [||] in
  let deltas = ref [] and fills = ref [] and stores = ref 0 in
  let analyse lv node =
    match nest_store node with
    | None -> raise Exit
    | Some (kind, accs, f) ->
      let roles =
        Array.of_list
          (List.map
             (fun ((b : Buffer.t), idx) ->
               if List.length idx <> Buffer.rank b then raise Exit;
               ( b,
                 Array.of_list
                   (List.map
                      (fun i -> match split lv i with Some p -> p | None -> raise Exit)
                      idx) ))
             accs)
      in
      let key =
        ( kind,
          Array.map (fun ((b : Buffer.t), ps) -> (b.Buffer.id, Array.map fst ps)) roles
        )
      in
      (match !shape with
      | None ->
        shape := Some (key, roles);
        bounds :=
          Array.map (fun (_, ps) -> Array.map (fun _ -> (max_int, min_int)) ps) roles
      | Some (key', _) -> if key <> key' then raise Exit);
      (roles, f)
  in
  (* Statements executed; each store's flat per-role offsets go to
     [deltas], last first. *)
  let rec walk env (s : Stmt.t) =
    match s with
    | Stmt.For { var; extent = Int n; unroll = true; body } when unrolled n ->
      let c = ref 1 in
      for i = 0 to n - 1 do
        c := !c + walk ((var.Var.id, i) :: env) body
      done;
      !c
    | Seq ss -> List.fold_left (fun c s -> c + walk env s) 0 ss
    | Store _ ->
      incr stores;
      if !stores > max_nest_stores then raise Exit;
      let roles, f =
        match List.assq_opt s !seen with
        | Some a -> a
        | None ->
          let a = analyse (List.map fst env) s in
          seen := (s, a) :: !seen;
          a
      in
      Array.iteri
        (fun r ((b : Buffer.t), ps) ->
          let delta = ref 0 and stride = ref 1 and dims = Array.of_list b.Buffer.dims in
          for p = Array.length ps - 1 downto 0 do
            let c =
              match const_index env (snd ps.(p)) with
              | Some c when Stdlib.abs c <= max_nest_index -> c
              | _ -> raise Exit
            in
            let lo, hi = !bounds.(r).(p) in
            !bounds.(r).(p) <- (min lo c, max hi c);
            delta := !delta + (c * !stride);
            stride := !stride * dims.(p)
          done;
          deltas := !delta :: !deltas)
        roles;
      fills := f :: !fills;
      1
    | _ -> raise Exit
  in
  (* A role's base over its constant [inv] parts, each checked here, and
     the ranges its other [inv] parts must lie in: [lo <= inv < hi] puts
     every element in bounds. *)
  let role r ((b : Buffer.t), ps) =
    let dims = Array.of_list b.Buffer.dims in
    let base = ref 0 and stride = ref 1 and ranged = ref [] in
    for p = Array.length ps - 1 downto 0 do
      let cmin, cmax = !bounds.(r).(p) in
      let lo = -cmin and hi = dims.(p) - cmax in
      (match fst ps.(p) with
      | None -> if 0 < lo || 0 >= hi then raise Exit
      | Some inv -> (
        match const_index [] inv with
        | Some v ->
          if Stdlib.abs v > max_nest_index || v < lo || v >= hi then raise Exit;
          base := !base + (v * !stride)
        | None ->
          if lo >= hi then raise Exit;
          ranged := { inv; lo; hi; stride = !stride } :: !ranged));
      stride := !stride * dims.(p)
    done;
    { buf = b; base = !base; dims = !ranged }
  in
  match s with
  | Stmt.For { extent = Int n; unroll = true; _ } when unrolled n -> (
    match walk [] s with
    | exception Exit -> None
    | statements -> (
      let kind, roles =
        match !shape with Some ((kind, _), roles) -> (kind, roles) | None -> (Fill, [||])
      in
      match Array.mapi role roles with
      | exception Exit -> None
      | roles ->
        Some
          {
            kind;
            statements;
            roles;
            deltas = Array.of_list (List.rev !deltas);
            fills = Array.of_list (List.rev !fills);
          }))
  | _ -> None

type barriers = No_barrier | Phased | Fibers

type body =
  | Thread of (float array array -> int -> int -> int)
  | Block of (float array array array -> int -> int)

type t = {
  kernel : Kernel.t;
  slots : slots;
  body : body;
  barriers : barriers;
  parallel_ok : bool;
}

let make (k : Kernel.t) slots (body : body) =
  let barriers =
    match body with
    | Block _ -> Phased
    | Thread _ -> if has_sync k.body then Fibers else No_barrier
  in
  {
    kernel = k;
    slots;
    body;
    barriers;
    parallel_ok = Verify.block_disjoint_writes k;
  }

let m_threads = Metrics.counter "sim.threads"
let m_stmts = Metrics.counter "sim.statements"
let m_exec_us = Metrics.counter "sim.exec_us"
let m_par_blocks = Metrics.counter "sim.parallel_blocks"
let m_seq_blocks = Metrics.counter "sim.sequential_blocks"
let m_phased_blocks = Metrics.counter "sim.phased_blocks"
let m_fiber_blocks = Metrics.counter "sim.fiber_blocks"

let zeroed (_, b) = Array.make (Buffer.num_elems b) 0.
let zero a = Array.fill a 0 (Array.length a) 0.

(* Thread storage for one block at a time, allocated once per launch (or
   once per worker domain) and zero-filled where the memory model starts
   it fresh. [tbufs.(t)] is a thread's buffer array over the shared arrays,
   its warp's arrays and its own registers. Threads that run one after
   another to completion (no barrier) share one thread's storage and one
   warp's: a thread's registers are zeroed before it starts and a warp's
   arrays before its first thread, which no later warp of the block
   follows into. [run] is the backend's code bound to that storage: one
   runner per thread buffer array, or one block runner over all of them. *)
type runner = Threads of (int -> int -> int) array | Blocks of (int -> int)

type storage = {
  tbufs : float array array array;
  shared : float array array;
  warps : float array array array;  (** per warp, then warp slot *)
  regs : float array array array;  (** per thread, then register slot *)
  run : runner;
}

let storage (c : t) (proto : float array array) =
  let k = c.kernel in
  let one = c.barriers = No_barrier in
  let threads = if one then 1 else k.block_dim in
  let shared = Array.map zeroed c.slots.shared_slots in
  let warps =
    Array.init
      (if one then 1 else Kernel.num_warps_per_block k)
      (fun _ -> Array.map zeroed c.slots.warp_slots)
  in
  let regs = Array.init threads (fun _ -> Array.map zeroed c.slots.reg_slots) in
  let tbufs =
    Array.init threads (fun tid ->
        let bufs = Array.copy proto in
        let set slots arrs = Array.iteri (fun i (s, _) -> bufs.(s) <- arrs.(i)) slots in
        set c.slots.shared_slots shared;
        set c.slots.warp_slots warps.(tid / Kernel.warp_size);
        set c.slots.reg_slots regs.(tid);
        bufs)
  in
  let run =
    match c.body with
    | Thread bind -> Threads (Array.map bind tbufs)
    | Block bind -> Blocks (bind tbufs)
  in
  { tbufs; shared; warps; regs; run }

(* Run one block over [st]; returns the number of statements its threads
   executed. Shared arrays are fresh per block, a warp's threads share its
   warp arrays, and register arrays are fresh per thread. A phased block
   runs its barrier intervals itself; the fiber fallback starts thread
   fibers in ascending tid order and advances them phase by phase, exactly
   like the reference. *)
let exec_block (c : t) st bid : int =
  let k = c.kernel in
  Array.iter zero st.shared;
  match (st.run, c.barriers) with
  | Threads runs, No_barrier ->
    let total = ref 0 and run = runs.(0) in
    for tid = 0 to k.block_dim - 1 do
      if tid mod Kernel.warp_size = 0 then Array.iter zero st.warps.(0);
      Array.iter zero st.regs.(0);
      total := !total + run tid bid
    done;
    !total
  | run, _ -> (
    Array.iter (Array.iter zero) st.warps;
    Array.iter (Array.iter zero) st.regs;
    match run with
    | Blocks f -> f bid
    | Threads runs ->
      let counts = Array.make k.block_dim 0 in
      let statuses =
        Array.init k.block_dim (fun tid ->
            Interp.start_thread (fun () -> counts.(tid) <- runs.(tid) tid bid))
      in
      Interp.barrier_loop ~kernel_name:k.name ~bid statuses;
      Array.fold_left ( + ) 0 counts)

let barriers_name = function
  | No_barrier -> "none"
  | Phased -> "phased"
  | Fibers -> "fibers"

let run_compiled ?workers (c : t) bindings =
  let k = c.kernel in
  Interp.check_bindings k bindings;
  let proto = Array.make (max 1 c.slots.nbufs) [||] in
  Array.iter
    (fun (s, (b : Buffer.t)) ->
      match List.find_opt (fun (p, _) -> Buffer.equal p b) bindings with
      | Some (_, arr) -> proto.(s) <- arr
      | None -> assert false (* every parameter is bound: check_bindings *))
    c.slots.global_slots;
  (* What runs, not what was asked for: without [workers], the default
     worker count decides, and on a host where it is 1 the blocks run
     sequentially here. *)
  let workers =
    match workers with
    | Some w -> w
    | None -> Hidet_parallel.Parallel.default_workers ()
  in
  let use_domains = workers > 1 && c.parallel_ok && k.grid_dim > 1 in
  let t0 = Unix.gettimeofday () in
  let counts =
    Trace.span
      ~attrs:(fun () ->
        [
          ("kernel", k.name);
          ("parallel", string_of_bool use_domains);
          ("barriers", barriers_name c.barriers);
          ("grid_dim", string_of_int k.grid_dim);
        ])
      "sim.exec"
      (fun _ ->
        if use_domains then begin
          (* Storage a worker has finished a block with, for its next. *)
          let free = Atomic.make [] in
          let rec take () =
            match Atomic.get free with
            | [] -> storage c proto
            | st :: rest as l ->
              if Atomic.compare_and_set free l rest then st else take ()
          in
          let rec give st =
            let l = Atomic.get free in
            if not (Atomic.compare_and_set free l (st :: l)) then give st
          in
          Hidet_parallel.Parallel.map ~workers
            (fun bid ->
              let st = take () in
              let n = exec_block c st bid in
              give st;
              n)
            (Array.init k.grid_dim Fun.id)
        end
        else begin
          let st = storage c proto in
          let counts = Array.make k.grid_dim 0 in
          for bid = 0 to k.grid_dim - 1 do
            counts.(bid) <- exec_block c st bid
          done;
          counts
        end)
  in
  Metrics.add m_exec_us (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  Metrics.add m_threads (Kernel.num_threads k);
  Metrics.add m_stmts (Array.fold_left ( + ) 0 counts);
  Metrics.add (if use_domains then m_par_blocks else m_seq_blocks) k.grid_dim;
  match c.barriers with
  | Phased -> Metrics.add m_phased_blocks k.grid_dim
  | Fibers -> Metrics.add m_fiber_blocks k.grid_dim
  | No_barrier -> ()

let run ?workers compile k bindings = run_compiled ?workers (compile k) bindings
