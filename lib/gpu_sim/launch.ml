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

type barriers = No_barrier | Phased | Fibers

type t = {
  kernel : Kernel.t;
  slots : slots;
  body : Exec_registry.body;
  barriers : barriers;
  parallel_ok : bool;
}

let make (k : Kernel.t) slots (body : Exec_registry.body) =
  let barriers =
    match body with
    | Exec_registry.Block _ -> Phased
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

(* Run one block; returns the number of statements its threads executed.
   [proto] holds the global arrays at their slots. Shared arrays are fresh
   per block, a warp's threads share its warp arrays, and register arrays
   are fresh per thread. A phased block runs its barrier intervals itself;
   the fiber fallback starts thread fibers in ascending tid order and
   advances them phase by phase, exactly like the reference. *)
let exec_block (c : t) (proto : float array array) bid : int =
  let k = c.kernel in
  let bufs_block = Array.copy proto in
  Array.iter (fun ((s, _) as sb) -> bufs_block.(s) <- zeroed sb) c.slots.shared_slots;
  let warp_storage =
    Array.init (Kernel.num_warps_per_block k) (fun _ ->
        Array.map zeroed c.slots.warp_slots)
  in
  let thread_bufs tid =
    let bufs = Array.copy bufs_block in
    let ws = warp_storage.(tid / Kernel.warp_size) in
    Array.iteri (fun i (s, _) -> bufs.(s) <- ws.(i)) c.slots.warp_slots;
    Array.iter (fun ((s, _) as sb) -> bufs.(s) <- zeroed sb) c.slots.reg_slots;
    bufs
  in
  match (c.body, c.barriers) with
  | Exec_registry.Block f, _ -> f bid (Array.init k.block_dim thread_bufs)
  | Thread entry, No_barrier ->
    let total = ref 0 in
    for tid = 0 to k.block_dim - 1 do
      total := !total + entry tid bid (thread_bufs tid)
    done;
    !total
  | Thread entry, _ ->
    let counts = Array.make k.block_dim 0 in
    let bufs = Array.init k.block_dim thread_bufs in
    let statuses =
      Array.init k.block_dim (fun tid ->
          Interp.start_thread (fun () ->
              counts.(tid) <- entry tid bid bufs.(tid)))
    in
    Interp.barrier_loop ~kernel_name:k.name ~bid statuses;
    Array.fold_left ( + ) 0 counts

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
        if use_domains then
          Hidet_parallel.Parallel.map ~workers
            (fun bid -> exec_block c proto bid)
            (Array.init k.grid_dim Fun.id)
        else begin
          let counts = Array.make k.grid_dim 0 in
          for bid = 0 to k.grid_dim - 1 do
            counts.(bid) <- exec_block c proto bid
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
