(* Random affine kernels shared by the cycle-model and analysis tests: an
   optional thread guard, a loop of [ext] iterations, and a list of access
   sites with per-lane index a*tid + b + c*i (affine in the thread id,
   loop-uniform offsets). [lets] wraps the loop in extra bindings,
   [offset] adds a per-site term to every index and [extent] replaces the
   literal trip count; the defaults build the plain affine kernel. *)

module Buffer = Hidet_ir.Buffer
module Var = Hidet_ir.Var
module Expr = Hidet_ir.Expr
module Stmt = Hidet_ir.Stmt
module Kernel = Hidet_ir.Kernel

type spec = { glb : bool; store : bool; a : int; b : int; c : int }

let build_kernel ?(grid_dim = 4) ?(lets = []) ?(offset = fun _ -> Expr.int 0)
    ?extent (ext, guard, specs) =
  let g = Buffer.create "g" [ 65536 ] in
  let s = Buffer.create ~scope:Buffer.Shared "s" [ 2048 ] in
  let i = Var.fresh "i" in
  let open Expr in
  let idx n sp =
    add
      (add (add (mul (int sp.a) Thread_idx) (int sp.b)) (mul (int sp.c) (var i)))
      (offset n)
  in
  let site n sp =
    let buf = if sp.glb then g else s in
    (* shared indices stay inside the 2048-elt buffer (mod is the identity
       on these ranges, so the pattern stays loop-uniform) *)
    let e = if sp.glb then idx n sp else modulo (idx n sp) (int 2048) in
    if sp.store then Stmt.store buf [ e ] (float 1.0)
    else Stmt.store buf [ e ] (load buf [ e ])
  in
  let body = Stmt.seq (List.mapi site specs) in
  let body = if guard then Stmt.if_ (lt Thread_idx (int 16)) body else body in
  let body = Stmt.for_ i (Option.value extent ~default:(int ext)) body in
  let body = List.fold_right (fun (v, e) acc -> Stmt.let_ v e acc) lets body in
  Kernel.create ~name:"affine" ~params:[ g ] ~grid_dim ~block_dim:32 body

let spec_gen =
  let open QCheck.Gen in
  let* glb = bool in
  let* store = bool in
  let* a = oneofl [ 0; 1; 2; 4; 32 ] in
  let* b = oneofl [ 0; 1; 64 ] in
  let* c = oneofl [ 0; 32; 64 ] in
  return { glb; store; a; b; c }

let kernel_gen =
  let open QCheck.Gen in
  let* ext = int_range 1 4 in
  let* guard = bool in
  let* specs = list_size (int_range 1 4) spec_gen in
  return (ext, guard, specs)

let show_case (ext, guard, specs) =
  Printf.sprintf "ext=%d guard=%b [%s]" ext guard
    (String.concat "; "
       (List.map
          (fun sp ->
            Printf.sprintf "%s%s a=%d b=%d c=%d"
              (if sp.glb then "g" else "s")
              (if sp.store then "!" else "?")
              sp.a sp.b sp.c)
          specs))
