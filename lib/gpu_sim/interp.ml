open Hidet_ir

exception Barrier_divergence of string
exception Invalid_access of string

type _ Effect.t += Sync : unit Effect.t

module Int_map = Map.Make (Int)

(* Storage for one buffer: a flat float array (all dtypes are stored as
   floats; integer tensors do not occur in the generated kernels). *)
type store = (int, float array) Hashtbl.t

let alloc_into (tbl : store) (bufs : Hidet_ir.Buffer.t list) =
  List.iter
    (fun (b : Hidet_ir.Buffer.t) ->
      Hashtbl.replace tbl b.Buffer.id (Array.make (Buffer.num_elems b) 0.))
    bufs

let flat (b : Hidet_ir.Buffer.t) (idx : int list) =
  try Buffer.flat_index b idx
  with Invalid_argument msg -> raise (Invalid_access msg)

(* Execution context of one thread. [vars] is the current lexical
   environment; statements save and restore it around scoped bindings so a
   single [Expr.env] record (allocated once per thread) can close over the
   context instead of being rebuilt per statement. *)
type thread_ctx = {
  tid : int;
  bid : int;
  globals : store;
  shared : store;  (** per block *)
  warps : store array;  (** per warp of the block *)
  regs : store;  (** per thread *)
  mutable vars : Expr.value Int_map.t;
}

let locate ctx (b : Hidet_ir.Buffer.t) : float array =
  let tbl =
    match b.Buffer.scope with
    | Buffer.Global -> ctx.globals
    | Buffer.Shared -> ctx.shared
    | Buffer.Warp -> ctx.warps.(ctx.tid / Kernel.warp_size)
    | Buffer.Register -> ctx.regs
  in
  match Hashtbl.find_opt tbl b.Buffer.id with
  | Some arr -> arr
  | None ->
    raise
      (Invalid_access
         (Printf.sprintf "buffer %s (%s) not allocated" b.Buffer.name
            (Buffer.scope_name b.Buffer.scope)))

let load_value ctx b idx = Expr.V_float (locate ctx b).(flat b idx)

let env_of ctx : Expr.env =
  {
    Expr.lookup =
      (fun v ->
        match Int_map.find_opt v.Var.id ctx.vars with
        | Some value -> value
        | None ->
          raise (Invalid_access (Printf.sprintf "unbound variable %s" (Var.name v))));
    load = (fun b idx -> load_value ctx b idx);
    thread_idx = ctx.tid;
    block_idx = ctx.bid;
  }

let exec_mma ctx env (m : Stmt.mma) =
  (* Executed cooperatively by the warp; simulated once, by lane 0. *)
  if ctx.tid mod Kernel.warp_size = 0 then begin
    let off l = List.map (Expr.eval_int env) l in
    let a_off = off m.a_off and b_off = off m.b_off and c_off = off m.c_off in
    let a = locate ctx m.a and b = locate ctx m.b and c = locate ctx m.c in
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
    (locate ctx buf).(flat buf idx) <- v
  | Mma m -> exec_mma ctx env m
  | Sync_threads -> Effect.perform Sync
  | Comment _ -> ()

type status = Finished | Blocked of (unit, status) Effect.Deep.continuation

(* Barrier loop: advance all blocked threads phase by phase. Shared with
   [Launch] so barrier-divergence semantics (and the error message)
   cannot drift between the backends. *)
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

let run_block (k : Kernel.t) globals bid =
  let shared : store = Hashtbl.create 4 in
  alloc_into shared k.shared;
  let warps =
    Array.init (Kernel.num_warps_per_block k) (fun _ ->
        let tbl : store = Hashtbl.create 4 in
        alloc_into tbl k.warp_bufs;
        tbl)
  in
  let make_ctx tid =
    let regs : store = Hashtbl.create 4 in
    alloc_into regs k.regs;
    { tid; bid; globals; shared; warps; regs; vars = Int_map.empty }
  in
  let statuses =
    Array.init k.block_dim (fun tid ->
        start_thread (fun () ->
            let ctx = make_ctx tid in
            exec_stmt ctx (env_of ctx) k.body))
  in
  barrier_loop ~kernel_name:k.name ~bid statuses

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
    run_block k globals bid
  done
