open Hidet_ir

exception Barrier_divergence of string
exception Invalid_access of string

type _ Effect.t += Sync : unit Effect.t

module Int_map = Map.Make (Int)

(* Storage for one buffer: a flat float array (all dtypes are stored as
   floats; integer tensors do not occur in the generated kernels). *)
type store = (int, float array) Hashtbl.t

let alloc (bufs : Hidet_ir.Buffer.t list) : store =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (b : Hidet_ir.Buffer.t) ->
      Hashtbl.replace tbl b.Buffer.id (Array.make (Buffer.num_elems b) 0.))
    bufs;
  tbl

let flat (b : Hidet_ir.Buffer.t) (idx : int list) =
  try Buffer.flat_index b idx
  with Invalid_argument msg -> raise (Invalid_access msg)

(* Execution context of one thread. [vars] is the current lexical
   environment; statements save and restore it around scoped bindings so a
   single [Expr.env] record (allocated once per thread) can close over the
   context instead of being rebuilt per statement. [outer] looks up the
   variables bound outside the statement being run. *)
type thread_ctx = {
  tid : int;
  bid : int;
  locate : Hidet_ir.Buffer.t -> float array;
  outer : Var.t -> Expr.value;
  mutable vars : Expr.value Int_map.t;
  mutable stmts : int;  (** statements run: every one but [Seq] counts *)
}

(* A thread's storage: global, shared per block, warp-distributed and
   per-thread register arrays. *)
let locate_in ~globals ~shared ~warps ~regs tid (b : Hidet_ir.Buffer.t) =
  let tbl =
    match b.Buffer.scope with
    | Buffer.Global -> globals
    | Buffer.Shared -> shared
    | Buffer.Warp -> warps.(tid / Kernel.warp_size)
    | Buffer.Register -> regs
  in
  match Hashtbl.find_opt tbl b.Buffer.id with
  | Some arr -> arr
  | None ->
    raise
      (Invalid_access
         (Printf.sprintf "buffer %s (%s) not allocated" b.Buffer.name
            (Buffer.scope_name b.Buffer.scope)))

let unbound (v : Var.t) =
  raise (Invalid_access (Printf.sprintf "unbound variable %s" (Var.name v)))

let env_of ctx : Expr.env =
  {
    Expr.lookup =
      (fun v ->
        match Int_map.find_opt v.Var.id ctx.vars with
        | Some value -> value
        | None -> ctx.outer v);
    load = (fun b idx -> Expr.V_float (ctx.locate b).(flat b idx));
    thread_idx = ctx.tid;
    block_idx = ctx.bid;
  }

let exec_mma ctx env (m : Stmt.mma) =
  (* Executed cooperatively by the warp; simulated once, by lane 0. *)
  if ctx.tid mod Kernel.warp_size = 0 then begin
    let off l = List.map (Expr.eval_int env) l in
    let a_off = off m.a_off and b_off = off m.b_off and c_off = off m.c_off in
    let a = ctx.locate m.a and b = ctx.locate m.b and c = ctx.locate m.c in
    let tile_index (buf : Hidet_ir.Buffer.t) base i j =
      (* base locates the tile origin; i, j offset the two trailing dims. *)
      let n = List.length base in
      let adjusted =
        List.mapi
          (fun p x -> if p = n - 2 then x + i else if p = n - 1 then x + j else x)
          base
      in
      flat buf adjusted
    in
    for i = 0 to m.m - 1 do
      for j = 0 to m.n - 1 do
        let acc = ref c.(tile_index m.c c_off i j) in
        for k = 0 to m.k - 1 do
          acc :=
            !acc
            +. (a.(tile_index m.a a_off i k) *. b.(tile_index m.b b_off k j))
        done;
        c.(tile_index m.c c_off i j) <- !acc
      done
    done
  end

let rec exec_stmt ctx env (s : Stmt.t) : unit =
  (match s with Stmt.Seq _ -> () | _ -> ctx.stmts <- ctx.stmts + 1);
  match s with
  | Stmt.Seq ss -> List.iter (exec_stmt ctx env) ss
  | For { var; extent; body; _ } ->
    let n = Expr.eval_int env extent in
    let saved = ctx.vars in
    for i = 0 to n - 1 do
      ctx.vars <- Int_map.add var.Var.id (Expr.V_int i) saved;
      exec_stmt ctx env body
    done;
    ctx.vars <- saved
  | If { cond; then_; else_ } ->
    if Expr.eval_bool env cond then exec_stmt ctx env then_
    else Option.iter (exec_stmt ctx env) else_
  | Let { var; value; body } ->
    let v = Expr.eval env value in
    let saved = ctx.vars in
    ctx.vars <- Int_map.add var.Var.id v saved;
    exec_stmt ctx env body;
    ctx.vars <- saved
  | Store { buf; indices; value } ->
    let idx = List.map (Expr.eval_int env) indices in
    let v = Expr.eval_float env value in
    (ctx.locate buf).(flat buf idx) <- v
  | Mma m -> exec_mma ctx env m
  | Sync_threads -> Effect.perform Sync
  | Comment _ -> ()

let exec ~thread_idx ~block_idx ~lookup ~locate s =
  let ctx =
    { tid = thread_idx; bid = block_idx; locate; outer = lookup; vars = Int_map.empty; stmts = 0 }
  in
  exec_stmt ctx (env_of ctx) s;
  ctx.stmts

type status = Finished | Blocked of (unit, status) Effect.Deep.continuation

(* Barrier loop: advance all blocked threads phase by phase. *)
let barrier_loop ~kernel_name ~bid statuses =
  let rec phases statuses =
    let blocked =
      Array.exists (function Blocked _ -> true | Finished -> false) statuses
    in
    if blocked then begin
      let finished =
        Array.exists (function Finished -> true | Blocked _ -> false) statuses
      in
      if finished then
        raise
          (Barrier_divergence
             (Printf.sprintf
                "kernel %s, block %d: some threads exited while others wait at \
                 a barrier"
                kernel_name bid));
      phases
        (Array.map
           (function
             | Blocked cont -> Effect.Deep.continue cont ()
             | Finished -> Finished)
           statuses)
    end
  in
  phases statuses

let start_thread body : status =
  Effect.Deep.match_with body ()
    {
      retc = (fun () -> Finished);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sync ->
            Some
              (fun (k : (a, status) Effect.Deep.continuation) -> Blocked k)
          | _ -> None);
    }

let run_block (k : Kernel.t) ~locate bid =
  let ctxs =
    Array.init k.block_dim (fun tid ->
        { tid; bid; locate = locate tid; outer = unbound; vars = Int_map.empty; stmts = 0 })
  in
  barrier_loop ~kernel_name:k.name ~bid
    (Array.map (fun ctx -> start_thread (fun () -> exec_stmt ctx (env_of ctx) k.body)) ctxs);
  Array.fold_left (fun n ctx -> n + ctx.stmts) 0 ctxs

(* Binding validation shared with [Launch]; the messages keep the
   historical "Interp.run" prefix so all backends fail identically. *)
let check_bindings (k : Kernel.t) bindings =
  List.iter
    (fun ((b : Hidet_ir.Buffer.t), arr) ->
      if Array.length arr <> Buffer.num_elems b then
        invalid_arg
          (Printf.sprintf "Interp.run: binding for %s has %d elements, expected %d"
             b.Buffer.name (Array.length arr) (Buffer.num_elems b)))
    bindings;
  List.iter
    (fun (b : Hidet_ir.Buffer.t) ->
      if not (List.exists (fun (p, _) -> Buffer.equal p b) bindings) then
        invalid_arg
          (Printf.sprintf "Interp.run: missing binding for parameter %s"
             b.Buffer.name))
    k.params

let run (k : Kernel.t) bindings =
  Verify.kernel_exn k;
  check_bindings k bindings;
  let globals : store = Hashtbl.create 8 in
  List.iter
    (fun ((b : Hidet_ir.Buffer.t), arr) -> Hashtbl.replace globals b.Buffer.id arr)
    bindings;
  for bid = 0 to k.grid_dim - 1 do
    let shared = alloc k.shared in
    let warps = Array.init (Kernel.num_warps_per_block k) (fun _ -> alloc k.warp_bufs) in
    let regs = Array.init k.block_dim (fun _ -> alloc k.regs) in
    let locate tid = locate_in ~globals ~shared ~warps ~regs:regs.(tid) tid in
    ignore (run_block k ~locate bid)
  done
