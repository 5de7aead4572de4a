open Hidet_ir
module Metrics = Hidet_obs.Metrics
module Trace = Hidet_obs.Trace
module Int_map = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* Codegen                                                            *)
(* ------------------------------------------------------------------ *)

(* The printer transliterates [Compile_exec]'s closure compiler: the same
   slot assignment ([Launch.slots]), the same static type dispatch, the
   same evaluation order (OCaml applications evaluate right to left in both
   the closures and the generated operators; wherever the closure backend
   sequences explicitly with lets, the generated code emits lets in the
   same order), the same register-tile nests ([Launch.nest]) and the same
   error raisers — so results, statement counts and raised exceptions are
   bit-identical across the three backends. Where the closure backend
   hoists invariant index arithmetic into frame slots, the generated code
   computes it in place (a nest binds its invariant parts once), and
   [ocamlopt] does the rest.

   What changes is the thread body: IR variables become OCaml lets and
   for-loop indices (no frames), buffers and their dimensions become
   let-bound locals hoisted into the prelude, and loads/stores become
   [Array.unsafe_get]/[unsafe_set] guarded by the same per-dimension bounds
   checks the closures perform (the checks make the unsafe access safe:
   [check_bindings] and the allocator guarantee exact array sizes). *)

type gexpr =
  | G_int of string
  | G_float of string
  | G_bool of string
  | G_dyn of string

type gstate = {
  buf_slot : (int, int) Hashtbl.t;  (** Buffer.id -> bufs slot *)
  mutable tmp : int;  (** fresh-name counter *)
  mutable nesting : bool;  (** [For] tries a nest: off inside an [unroll] [For] *)
}

(* Every generated name, IR loop and let variables included, comes from the
   per-kernel counter in emission order, never from the process-global
   [Var.id]: alpha-equivalent kernels print to byte-equal source and so
   share one memoized unit. *)
let fresh st base =
  st.tmp <- st.tmp + 1;
  Printf.sprintf "%s%d" base st.tmp

let raw = function G_int s | G_float s | G_bool s | G_dyn s -> s

(* Coercions mirror [Compile_exec.as_int]/[as_float]/[as_bool]/[as_value]. *)
let as_int = function
  | G_int s -> s
  | G_float s -> Printf.sprintf "(int_of_float %s)" s
  | G_bool s -> Printf.sprintf "(if %s then 1 else 0)" s
  | G_dyn s -> Printf.sprintf "(R.int_of_value %s)" s

let as_float = function
  | G_float s -> s
  | G_int s -> Printf.sprintf "(float_of_int %s)" s
  | G_bool s -> Printf.sprintf "(if %s then 1. else 0.)" s
  | G_dyn s -> Printf.sprintf "(R.float_of_value %s)" s

let as_bool = function
  | G_bool s -> s
  | G_int s -> Printf.sprintf "(%s <> 0)" s
  | G_float s -> Printf.sprintf "(%s <> 0.)" s
  | G_dyn s -> Printf.sprintf "(R.bool_of_value %s)" s

let as_value = function
  | G_int s -> Printf.sprintf "(R.V_int %s)" s
  | G_float s -> Printf.sprintf "(R.V_float %s)" s
  | G_bool s -> Printf.sprintf "(R.V_bool %s)" s
  | G_dyn s -> s

let int_lit n = if n < 0 then Printf.sprintf "(%d)" n else string_of_int n

(* Hex float literals round-trip every finite value (including -0. and
   subnormals) exactly; nan/infinity go through their bit patterns so even
   exotic payloads survive. *)
let float_lit f =
  match Float.classify_float f with
  | FP_nan | FP_infinite ->
    Printf.sprintf "(Int64.float_of_bits 0x%LxL)" (Int64.bits_of_float f)
  | _ -> Printf.sprintf "(%h)" f

(* Must stay in sync with [Exec_registry.binop_of_code]. *)
let binop_code = function
  | Expr.Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Mod -> 4
  | Min -> 5
  | Max -> 6
  | Lt -> 7
  | Le -> 8
  | Gt -> 9
  | Ge -> 10
  | Eq -> 11
  | Ne -> 12
  | And | Or -> assert false

let buf_name slot = Printf.sprintf "b%d" slot
let dim_name slot p = Printf.sprintf "b%d_d%d" slot p

(* Row-major flat index over already-bound index names, strides taken from
   the prelude's let-bound dimension ints. *)
let horner slot names =
  match names with
  | [] -> "0"
  | first :: rest ->
    List.fold_left
      (fun acc (p, nm) ->
        Printf.sprintf "((%s * %s) + %s)" acc (dim_name slot p) nm)
      first
      (List.mapi (fun i nm -> (i + 1, nm)) rest)

let bound_check slot p nm bname =
  Printf.sprintf "if %s < 0 || %s >= %s then R.oob %s %s %S; " nm nm
    (dim_name slot p) nm (dim_name slot p) bname

type vty = T_int | T_float | T_bool | T_dyn

let rec comp st venv (e : Expr.t) : gexpr =
  match e with
  | Expr.Int n -> G_int (int_lit n)
  | Float f -> G_float (float_lit f)
  | Bool b -> G_bool (if b then "true" else "false")
  | Thread_idx -> G_int "tid"
  | Block_idx -> G_int "bid"
  | Var v -> (
    match Int_map.find_opt v.Var.id venv with
    | Some (T_int, nm) -> G_int nm
    | Some (T_float, nm) -> G_float nm
    | Some (T_bool, nm) -> G_bool nm
    | Some (T_dyn, nm) -> G_dyn nm
    | None ->
      (* Rejected by the verifier; kept for parity with the closure
         backend's runtime error. *)
      G_dyn (Printf.sprintf "(R.unbound_var %S)" (Var.name v)))
  | Load (buf, idx) -> G_float (comp_load st venv buf idx)
  | Select (c, a, b) -> (
    let cc = as_bool (comp st venv c) in
    let xa = comp st venv a and xb = comp st venv b in
    match (xa, xb) with
    | G_int sa, G_int sb ->
      G_int (Printf.sprintf "(if %s then %s else %s)" cc sa sb)
    | G_bool sa, G_bool sb ->
      G_bool (Printf.sprintf "(if %s then %s else %s)" cc sa sb)
    | G_float sa, G_float sb ->
      G_float (Printf.sprintf "(if %s then %s else %s)" cc sa sb)
    | _ ->
      G_dyn
        (Printf.sprintf "(if %s then %s else %s)" cc (as_value xa)
           (as_value xb)))
  | Unop (op, a) -> comp_unop st venv op a
  | Binop (op, a, b) -> comp_binop st venv op a b

(* Loads evaluate all indices left to right, then run all bounds checks,
   then read — [comp_flat_read]'s exact order. *)
and comp_load st venv (buf : Buffer.t) idx =
  let cidx = List.map (fun i -> as_int (comp st venv i)) idx in
  let ignores () =
    String.concat "" (List.map (Printf.sprintf "ignore %s; ") cidx)
  in
  match Hashtbl.find_opt st.buf_slot buf.Buffer.id with
  | None ->
    Printf.sprintf "(%sR.not_allocated %S %S)" (ignores ()) buf.Buffer.name
      (Buffer.scope_name buf.Buffer.scope)
  | Some slot ->
    let r = List.length buf.Buffer.dims in
    if List.length cidx <> r then
      Printf.sprintf "(%sR.rank_mismatch %S)" (ignores ()) buf.Buffer.name
    else begin
      let names = List.map (fun _ -> fresh st "i") cidx in
      let lets =
        List.map2 (Printf.sprintf "let %s = %s in ") names cidx
        |> String.concat ""
      in
      let checks =
        List.mapi (fun p nm -> bound_check slot p nm buf.Buffer.name) names
        |> String.concat ""
      in
      Printf.sprintf "(%s%sArray.unsafe_get %s %s)" lets checks
        (buf_name slot) (horner slot names)
    end

and comp_unop st venv op a =
  match op with
  | Expr.Not -> G_bool (Printf.sprintf "(not %s)" (as_bool (comp st venv a)))
  | Neg -> (
    match comp st venv a with
    | G_int s -> G_int (Printf.sprintf "(- %s)" s)
    | G_float s -> G_float (Printf.sprintf "(-. %s)" s)
    | G_bool s -> G_int (Printf.sprintf "(ignore %s; R.neg_bool ())" s)
    | G_dyn s -> G_dyn (Printf.sprintf "(R.dyn_neg %s)" s))
  | Abs -> (
    match comp st venv a with
    | G_int s -> G_int (Printf.sprintf "(Stdlib.abs %s)" s)
    | G_float s -> G_float (Printf.sprintf "(Float.abs %s)" s)
    | G_bool s -> G_int (Printf.sprintf "(ignore %s; R.abs_bool ())" s)
    | G_dyn s -> G_dyn (Printf.sprintf "(R.dyn_abs %s)" s))
  | Exp -> G_float (Printf.sprintf "(Stdlib.exp %s)" (as_float (comp st venv a)))
  | Log -> G_float (Printf.sprintf "(Stdlib.log %s)" (as_float (comp st venv a)))
  | Sqrt ->
    G_float (Printf.sprintf "(Stdlib.sqrt %s)" (as_float (comp st venv a)))
  | Tanh ->
    G_float (Printf.sprintf "(Stdlib.tanh %s)" (as_float (comp st venv a)))
  | Erf -> G_float (Printf.sprintf "(R.erf %s)" (as_float (comp st venv a)))

and comp_binop st venv op a b =
  match op with
  | Expr.And ->
    G_bool
      (Printf.sprintf "(%s && %s)"
         (as_bool (comp st venv a))
         (as_bool (comp st venv b)))
  | Or ->
    G_bool
      (Printf.sprintf "(%s || %s)"
         (as_bool (comp st venv a))
         (as_bool (comp st venv b)))
  | _ -> (
    let xa = comp st venv a and xb = comp st venv b in
    match (xa, xb) with
    | (G_dyn _, _ | _, G_dyn _) ->
      (* The closure backend binds va then vb explicitly. *)
      let va = fresh st "va" and vb = fresh st "vb" in
      G_dyn
        (Printf.sprintf "(let %s = %s in let %s = %s in R.dyn_binop %d %s %s)"
           va (as_value xa) vb (as_value xb) (binop_code op) va vb)
    | (G_bool _, _ | _, G_bool _) ->
      (* Evaluate both operands first, then reject — [Expr.eval]'s order. *)
      G_int
        (Printf.sprintf "(ignore %s; ignore %s; R.bool_binop ())" (raw xa)
           (raw xb))
    | G_int sa, G_int sb -> (
      match op with
      | Add -> G_int (Printf.sprintf "(%s + %s)" sa sb)
      | Sub -> G_int (Printf.sprintf "(%s - %s)" sa sb)
      | Mul -> G_int (Printf.sprintf "(%s * %s)" sa sb)
      | Div -> G_int (Printf.sprintf "(%s / %s)" sa sb)
      | Mod -> G_int (Printf.sprintf "(%s mod %s)" sa sb)
      | Min | Max ->
        (* [min (fa rt) (fb rt)] evaluates right to left: bind b, then a,
           then compare — monomorphized to int. *)
        let vb = fresh st "vb" and va = fresh st "va" in
        let cmp = if op = Min then "<=" else ">=" in
        G_int
          (Printf.sprintf
             "(let %s = %s in let %s = %s in if %s %s %s then %s else %s)" vb
             sb va sa va cmp vb va vb)
      | Lt -> G_bool (Printf.sprintf "(%s < %s)" sa sb)
      | Le -> G_bool (Printf.sprintf "(%s <= %s)" sa sb)
      | Gt -> G_bool (Printf.sprintf "(%s > %s)" sa sb)
      | Ge -> G_bool (Printf.sprintf "(%s >= %s)" sa sb)
      | Eq -> G_bool (Printf.sprintf "(%s = %s)" sa sb)
      | Ne -> G_bool (Printf.sprintf "(%s <> %s)" sa sb)
      | And | Or -> assert false)
    | _ -> (
      (* Mixed int/float promotes to float, exactly like [eval_binop]. *)
      let sa = as_float xa and sb = as_float xb in
      match op with
      | Add -> G_float (Printf.sprintf "(%s +. %s)" sa sb)
      | Sub -> G_float (Printf.sprintf "(%s -. %s)" sa sb)
      | Mul -> G_float (Printf.sprintf "(%s *. %s)" sa sb)
      | Div -> G_float (Printf.sprintf "(%s /. %s)" sa sb)
      | Mod -> G_float (Printf.sprintf "(Float.rem %s %s)" sa sb)
      | Min -> G_float (Printf.sprintf "(Float.min %s %s)" sa sb)
      | Max -> G_float (Printf.sprintf "(Float.max %s %s)" sa sb)
      | Lt -> G_bool (Printf.sprintf "(%s < %s)" sa sb)
      | Le -> G_bool (Printf.sprintf "(%s <= %s)" sa sb)
      | Gt -> G_bool (Printf.sprintf "(%s > %s)" sa sb)
      | Ge -> G_bool (Printf.sprintf "(%s >= %s)" sa sb)
      | Eq -> G_bool (Printf.sprintf "(%s = %s)" sa sb)
      | Ne -> G_bool (Printf.sprintf "(%s <> %s)" sa sb)
      | And | Or -> assert false))

(* ------------------------------------------------------------------ *)
(* Statement emission                                                 *)
(* ------------------------------------------------------------------ *)

(* Each statement is emitted as "<stmt>;\n"; blocks close with "()" so an
   empty body is still well-formed. *)

let add = Stdlib.Buffer.add_string

let rec emit_stmt st venv out ind (s : Stmt.t) : unit =
  let pad = String.make ind ' ' in
  match s with
  | Stmt.Seq ss -> List.iter (emit_stmt st venv out ind) ss
  | For { var; extent; body; unroll } -> (
    (* An [unroll] nest runs whole or not at all, as in [Compile_exec]. *)
    let general () =
      let nesting = st.nesting in
      if unroll then st.nesting <- false;
      let ext = as_int (comp st venv extent) in
      let n = fresh st "n" in
      let v = fresh st "v" in
      add out (Printf.sprintf "%sincr stmts;\n" pad);
      add out (Printf.sprintf "%s(let %s = %s in\n" pad n ext);
      add out (Printf.sprintf "%s for %s = 0 to %s - 1 do\n" pad v n);
      emit_stmt st (Int_map.add var.Var.id (T_int, v) venv) out (ind + 2) body;
      add out (Printf.sprintf "%s  ()\n%s done);\n" pad pad);
      st.nesting <- nesting
    in
    match if st.nesting then Launch.nest s else None with
    | Some n
      when Array.for_all
             (fun (r : Launch.nest_role) -> Hashtbl.mem st.buf_slot r.buf.Buffer.id)
             n.roles ->
      emit_nest st venv out pad n general
    | _ -> general ())
  | If { cond; then_; else_ } ->
    let cc = as_bool (comp st venv cond) in
    add out (Printf.sprintf "%sincr stmts;\n" pad);
    add out (Printf.sprintf "%s(if %s then begin\n" pad cc);
    emit_stmt st venv out (ind + 2) then_;
    (match else_ with
    | None -> add out (Printf.sprintf "%s  ()\n%send);\n" pad pad)
    | Some e ->
      add out (Printf.sprintf "%s  ()\n%send\n%selse begin\n" pad pad pad);
      emit_stmt st venv out (ind + 2) e;
      add out (Printf.sprintf "%s  ()\n%send);\n" pad pad))
  | Let { var; value; body } ->
    let x = comp st venv value in
    let v = fresh st "v" in
    let ty =
      match x with
      | G_int _ -> T_int
      | G_float _ -> T_float
      | G_bool _ -> T_bool
      | G_dyn _ -> T_dyn
    in
    add out (Printf.sprintf "%sincr stmts;\n" pad);
    add out (Printf.sprintf "%s(let %s = %s in\n" pad v (raw x));
    emit_stmt st (Int_map.add var.Var.id (ty, v) venv) out (ind + 1) body;
    add out (Printf.sprintf "%s ());\n" pad)
  | Store { buf; indices; value } -> emit_store st venv out pad buf indices value
  | Mma m -> emit_mma st venv out pad m
  | Sync_threads ->
    add out (Printf.sprintf "%sincr stmts;\n%sR.sync ();\n" pad pad)
  | Comment _ -> add out (Printf.sprintf "%sincr stmts;\n" pad)

(* A register-tile nest ({!Launch.nest}): its invariant parts bound once,
   one range check, then the nest's statement count in one step and its
   stores straight-line, unchecked; out of range, the nest's ordinary code,
   which raises the reference's error at the reference's statement. *)
and emit_nest st venv out pad (n : Launch.nest) general =
  let slot (r : Launch.nest_role) = Hashtbl.find st.buf_slot r.buf.Buffer.id in
  let checks = ref [] in
  add out (Printf.sprintf "%s(" pad);
  let bases =
    Array.map
      (fun (r : Launch.nest_role) ->
        String.concat " + "
          (int_lit r.base
          :: List.map
               (fun (d : Launch.nest_dim) ->
                 let v = fresh st "inv" in
                 add out
                   (Printf.sprintf "let %s = %s in " v (as_int (comp st venv d.inv)));
                 checks :=
                   Printf.sprintf "%s >= %s && %s < %d" v (int_lit d.lo) v d.hi :: !checks;
                 Printf.sprintf "%s * %d" v d.stride)
               r.dims))
      n.roles
  in
  let checked = !checks <> [] in
  if checked then
    add out
      (Printf.sprintf "\n%s if %s then begin\n" pad
         (String.concat " && " (List.rev !checks)))
  else add out "\n";
  add out (Printf.sprintf "%s  stmts := !stmts + %d;\n" pad n.statements);
  let o =
    Array.map
      (fun b ->
        let v = fresh st "o" in
        add out (Printf.sprintf "%s  let %s = %s in\n" pad v b);
        v)
      bases
  in
  let roles = Array.length n.roles in
  let at r j =
    Printf.sprintf "%s (%s + %d)"
      (buf_name (slot n.roles.(r)))
      o.(r)
      n.deltas.((j * roles) + r)
  in
  Array.iteri
    (fun j f ->
      add out
        (Printf.sprintf "%s  Array.unsafe_set %s %s;\n" pad (at 0 j)
           (match n.kind with
           | Fma ->
             Printf.sprintf
               "(Array.unsafe_get %s +. (Array.unsafe_get %s *. Array.unsafe_get %s))"
               (at 1 j) (at 2 j) (at 3 j)
           | Copy -> Printf.sprintf "(Array.unsafe_get %s)" (at 1 j)
           | Fill -> float_lit f)))
    n.fills;
  if checked then begin
    add out (Printf.sprintf "%s  ()\n%s end else begin\n" pad pad);
    general ();
    add out (Printf.sprintf "%s  ()\n%s end);\n" pad pad)
  end
  else add out (Printf.sprintf "%s  ());\n" pad)

(* Stores count the statement, evaluate indices left to right, then the
   value, then resolve/check, then write — [comp_store]'s exact order. *)
and emit_store st venv out pad (buf : Buffer.t) indices value =
  let cidx = List.map (fun i -> as_int (comp st venv i)) indices in
  let cv = as_float (comp st venv value) in
  add out (Printf.sprintf "%sincr stmts;\n" pad);
  let fail raiser =
    add out (Printf.sprintf "%s(" pad);
    List.iter (fun s -> add out (Printf.sprintf "ignore %s; " s)) cidx;
    add out (Printf.sprintf "ignore %s; %s);\n" cv raiser)
  in
  match Hashtbl.find_opt st.buf_slot buf.Buffer.id with
  | None ->
    fail
      (Printf.sprintf "R.not_allocated %S %S" buf.Buffer.name
         (Buffer.scope_name buf.Buffer.scope))
  | Some slot ->
    let r = List.length buf.Buffer.dims in
    if List.length cidx <> r then
      fail (Printf.sprintf "R.rank_mismatch %S" buf.Buffer.name)
    else begin
      let names = List.map (fun _ -> fresh st "i") cidx in
      let v = fresh st "x" in
      add out (Printf.sprintf "%s(" pad);
      List.iter2
        (fun nm s -> add out (Printf.sprintf "let %s = %s in " nm s))
        names cidx;
      add out (Printf.sprintf "let %s = %s in\n%s " v cv pad);
      List.iteri
        (fun p nm -> add out (bound_check slot p nm buf.Buffer.name))
        names;
      add out
        (Printf.sprintf "Array.unsafe_set %s %s %s);\n" (buf_name slot)
           (horner slot names) v)
    end

(* MMA transliterates [comp_mma]: statement counted, lane-0 gate, offsets
   evaluated a/b/c left to right, tile origins flattened c/b/a (leading-dim
   checks hoisted), then the m*n*k loops with per-element trailing-dim
   checks. The per-dim checks plus the origin construction keep every flat
   index in bounds, so the loop bodies use unsafe accesses. *)
and emit_mma st venv out pad (m : Stmt.mma) =
  let comp_offs l = List.map (fun e -> as_int (comp st venv e)) l in
  let ca = comp_offs m.a_off
  and cb = comp_offs m.b_off
  and cc = comp_offs m.c_off in
  let slot (b : Buffer.t) = Hashtbl.find_opt st.buf_slot b.Buffer.id in
  add out (Printf.sprintf "%sincr stmts;\n" pad);
  add out (Printf.sprintf "%s(if tid mod %d = 0 then begin\n" pad
             Kernel.warp_size);
  let p2 = pad ^ "  " in
  match (slot m.a, slot m.b, slot m.c) with
  | Some sa, Some sb, Some sc
    when Buffer.rank m.a >= 2 && Buffer.rank m.b >= 2 && Buffer.rank m.c >= 2
    ->
    let bind_offs prefix offs =
      List.map
        (fun s ->
          let nm = fresh st prefix in
          add out (Printf.sprintf "%slet %s = %s in\n" p2 nm s);
          nm)
        offs
      |> Array.of_list
    in
    let ao = bind_offs "ao" ca in
    let bo = bind_offs "bo" cb in
    let co = bind_offs "co" cc in
    let a_r = Buffer.rank m.a
    and b_r = Buffer.rank m.b
    and c_r = Buffer.rank m.c in
    (* Leading-dim checks + origin with trailing dims zeroed. *)
    let origin nm slot_ name r (offs : string array) =
      let acc = ref "0" in
      for p = 0 to r - 1 do
        if p < r - 2 then begin
          add out (Printf.sprintf "%s%s" p2 (bound_check slot_ p offs.(p) name));
          add out "\n";
          acc :=
            if !acc = "0" then offs.(p)
            else Printf.sprintf "((%s * %s) + %s)" !acc (dim_name slot_ p)
                   offs.(p)
        end
        else
          acc :=
            if !acc = "0" then "0"
            else Printf.sprintf "(%s * %s)" !acc (dim_name slot_ p)
      done;
      add out (Printf.sprintf "%slet %s = %s in\n" p2 nm !acc)
    in
    let c0 = fresh st "c0" and b0 = fresh st "b0" and a0 = fresh st "a0" in
    origin c0 sc m.c.Buffer.name c_r co;
    origin b0 sb m.b.Buffer.name b_r bo;
    origin a0 sa m.a.Buffer.name a_r ao;
    let ar0 = ao.(a_r - 2) and ac0 = ao.(a_r - 1) in
    let br0 = bo.(b_r - 2) and bc0 = bo.(b_r - 1) in
    let cr0 = co.(c_r - 2) and cc0 = co.(c_r - 1) in
    let a_rdim = dim_name sa (a_r - 2) and a_cdim = dim_name sa (a_r - 1) in
    let b_rdim = dim_name sb (b_r - 2) and b_cdim = dim_name sb (b_r - 1) in
    let c_rdim = dim_name sc (c_r - 2) and c_cdim = dim_name sc (c_r - 1) in
    let a_name = m.a.Buffer.name
    and b_name = m.b.Buffer.name
    and c_name = m.c.Buffer.name in
    add out (Printf.sprintf "%sfor i = 0 to %d do\n" p2 (m.m - 1));
    add out (Printf.sprintf "%s for j = 0 to %d do\n" p2 (m.n - 1));
    add out (Printf.sprintf "%s  let ri = %s + i in\n" p2 cr0);
    add out (Printf.sprintf "%s  let cj = %s + j in\n" p2 cc0);
    add out
      (Printf.sprintf "%s  if ri < 0 || ri >= %s then R.oob ri %s %S;\n" p2
         c_rdim c_rdim c_name);
    add out
      (Printf.sprintf "%s  if cj < 0 || cj >= %s then R.oob cj %s %S;\n" p2
         c_cdim c_cdim c_name);
    add out
      (Printf.sprintf "%s  let cix = %s + (ri * %s) + cj in\n" p2 c0 c_cdim);
    add out
      (Printf.sprintf "%s  let acc = ref (Array.unsafe_get %s cix) in\n" p2
         (buf_name sc));
    add out (Printf.sprintf "%s  for k = 0 to %d do\n" p2 (m.k - 1));
    add out (Printf.sprintf "%s   let brk = %s + k in\n" p2 br0);
    add out (Printf.sprintf "%s   let bcj = %s + j in\n" p2 bc0);
    add out
      (Printf.sprintf "%s   if brk < 0 || brk >= %s then R.oob brk %s %S;\n"
         p2 b_rdim b_rdim b_name);
    add out
      (Printf.sprintf "%s   if bcj < 0 || bcj >= %s then R.oob bcj %s %S;\n"
         p2 b_cdim b_cdim b_name);
    add out (Printf.sprintf "%s   let ari = %s + i in\n" p2 ar0);
    add out (Printf.sprintf "%s   let ack = %s + k in\n" p2 ac0);
    add out
      (Printf.sprintf "%s   if ari < 0 || ari >= %s then R.oob ari %s %S;\n"
         p2 a_rdim a_rdim a_name);
    add out
      (Printf.sprintf "%s   if ack < 0 || ack >= %s then R.oob ack %s %S;\n"
         p2 a_cdim a_cdim a_name);
    add out
      (Printf.sprintf
         "%s   acc := !acc +. Array.unsafe_get %s (%s + (ari * %s) + ack) \
          *. Array.unsafe_get %s (%s + (brk * %s) + bcj)\n"
         p2 (buf_name sa) a0 a_cdim (buf_name sb) b0 b_cdim);
    add out (Printf.sprintf "%s  done;\n" p2);
    add out (Printf.sprintf "%s  Array.unsafe_set %s cix !acc\n" p2
               (buf_name sc));
    add out (Printf.sprintf "%s done\n%sdone\n" p2 p2);
    add out (Printf.sprintf "%send);\n" pad)
  | sa, sb, sc ->
    (* Undeclared operand or rank < 2: rejected by the verifier; keep the
       reference's runtime behaviour (evaluate all offsets, then raise). *)
    List.iter
      (fun s -> add out (Printf.sprintf "%signore %s;\n" p2 s))
      (ca @ cb @ cc);
    let first_missing =
      List.find_opt (fun (s, _) -> s = None) [ (sa, m.a); (sb, m.b); (sc, m.c) ]
    in
    (match first_missing with
    | Some (_, b) ->
      add out
        (Printf.sprintf "%sR.not_allocated %S %S\n" p2 b.Buffer.name
           (Buffer.scope_name b.Buffer.scope))
    | None ->
      add out (Printf.sprintf "%sR.mma_rank %S\n" p2 m.c.Buffer.name));
    add out (Printf.sprintf "%send);\n" pad)

(* ------------------------------------------------------------------ *)
(* Phased kernels                                                     *)
(* ------------------------------------------------------------------ *)

(* The block function of a phased kernel transliterates
   [Compile_exec.phased]: code without a barrier joins the pending
   per-thread text, which becomes one segment closure [fun tid _ -> ...]
   pushed on the interval [iv] when the block reaches a barrier or a
   uniform [For] or [If]. The block's own code runs those loops and
   branches once per block, over block-level variables that the segments
   capture. A uniform [Let] is bound at block level too; any other [Let]
   spanning a barrier keeps its value per thread, in an array indexed by
   [tid] that each later segment reads once into a local. A segment counts
   its statements in a local ref, so they stay in a register, and adds
   them to the block's [total] at its end. *)
type pending = {
  text : Stdlib.Buffer.t;
  mutable binds : string list;  (** per-thread locals the text binds itself *)
}

(* [live]: (array, local) of the per-thread values in scope, newest first. *)
let materialize out pad tp live p =
  if Stdlib.Buffer.length p.text > 0 then begin
    add out (Printf.sprintf "%sR.push iv (fun tid _ ->\n%s" pad tp);
    List.iter
      (fun (a, v) ->
        if not (List.mem v p.binds) then
          add out (Printf.sprintf "      let %s = Array.unsafe_get %s tid in\n" v a))
      (List.rev live);
    add out "      let stmts = ref 0 in\n";
    Stdlib.Buffer.add_buffer out p.text;
    add out (Printf.sprintf "%s    total := !total + !stmts) 0;\n" pad);
    Stdlib.Buffer.clear p.text;
    p.binds <- []
  end

let vty_of = function
  | G_int _ -> T_int
  | G_float _ -> T_float
  | G_bool _ -> T_bool
  | G_dyn _ -> T_dyn

(* Returns [live] as it stands after [s]: a [Let]'s block-level binding
   stays in scope until the enclosing loop or branch closes. *)
let rec emit_phased st uniform tp venv live out ind p (s : Stmt.t) =
  let pad = String.make ind ' ' in
  let ph = emit_phased st uniform tp in
  let count () = add p.text (Printf.sprintf "%s    incr stmts;\n" pad) in
  let close_body live =
    materialize out (pad ^ "  ") tp live p;
    add out (Printf.sprintf "%s  ()\n" pad)
  in
  if not (Launch.has_sync s) then begin
    emit_stmt st venv p.text (ind + 4) s;
    live
  end
  else
    match s with
    | Stmt.Sync_threads ->
      count ();
      materialize out pad tp live p;
      add out (Printf.sprintf "%sR.flush iv;\n" pad);
      live
    | Seq ss -> List.fold_left (fun live s -> ph venv live out ind p s) live ss
    | Let { var; value; body } ->
      let x = comp st venv value in
      let ty = vty_of x in
      count ();
      let name, live =
        if uniform var then begin
          let u = fresh st "u" in
          add out (Printf.sprintf "%slet %s = %s in\n" pad u (raw x));
          (u, live)
        end
        else begin
          let a = fresh st "t" in
          let v = a ^ "_v" in
          let zero =
            match ty with
            | T_int -> "0"
            | T_float -> "0."
            | T_bool -> "false"
            | T_dyn -> "(R.V_int 0)"
          in
          add out
            (Printf.sprintf "%slet %s = Array.make (Array.length tbufs) %s in\n"
               pad a zero);
          add p.text
            (Printf.sprintf "%s    let %s = %s in\n%s    Array.unsafe_set %s tid %s;\n"
               pad v (raw x) pad a v);
          p.binds <- v :: p.binds;
          (v, (a, v) :: live)
        end
      in
      ph (Int_map.add var.Var.id (ty, name) venv) live out ind p body
    | For { var; extent; body; _ } ->
      let ext = as_int (comp st venv extent) in
      count ();
      materialize out pad tp live p;
      let v = fresh st "v" in
      add out (Printf.sprintf "%sfor %s = 0 to %s - 1 do\n" pad v ext);
      close_body (ph (Int_map.add var.Var.id (T_int, v) venv) live out (ind + 2) p body);
      add out (Printf.sprintf "%sdone;\n" pad);
      live
    | If { cond; then_; else_ } ->
      let c = as_bool (comp st venv cond) in
      count ();
      materialize out pad tp live p;
      add out (Printf.sprintf "%sif %s then begin\n" pad c);
      close_body (ph venv live out (ind + 2) p then_);
      add out (Printf.sprintf "%send else begin\n" pad);
      close_body (Option.fold ~none:live ~some:(ph venv live out (ind + 2) p) else_);
      add out (Printf.sprintf "%send;\n" pad);
      live
    | Store _ | Mma _ | Comment _ -> assert false (* no barrier *)

(* ------------------------------------------------------------------ *)
(* Kernel codegen                                                     *)
(* ------------------------------------------------------------------ *)

(* The generated unit binds [entry]: [R.Thread body], where [body tid bid
   bufs] runs one thread and returns its statement count, or for a phased
   kernel [R.Block block], where [block bid tbufs] runs the whole block.
   Buffer arrays and their dimensions are hoisted to let-bound locals in
   the prelude (a block function binds the per-thread ones per segment);
   the registration trailer (which embeds the unique unit name) is
   appended at build time, so the source that keys the compile memo holds
   no process-global id. Slot numbers and dims are literals in it: equal
   source means an equal slot layout. *)
let codegen (k : Kernel.t) : string * Launch.slots =
  let slots = Launch.slots k in
  let st = { buf_slot = slots.Launch.slot_of; tmp = 0; nesting = true } in
  let out = Stdlib.Buffer.create 4096 in
  add out
    (Printf.sprintf "(* generated by Hidet_gpu.Exec_ocaml for kernel %s *)\n"
       k.Kernel.name);
  (* The mangled unit name, not the [Hidet_gpu] wrapper alias: dune's dev
     profile compiles with [-opaque], so going through the wrapper would
     record an implementation dependency on the wrapper unit — which hosts
     never link (alias references resolve statically). The registry unit
     itself is always linked into any host that can reach this code. *)
  add out "module R = Hidet_gpu__Exec_registry\n\n";
  let bind pad (s, _) =
    Printf.sprintf "%slet %s = bufs.(%d) in\n" pad (buf_name s) s
  in
  let dims (s, (b : Buffer.t)) =
    List.iteri
      (fun p d -> add out (Printf.sprintf "  let %s = %d in\n" (dim_name s p) d))
      b.Buffer.dims
  in
  let all =
    Array.concat
      [ slots.global_slots; slots.shared_slots; slots.warp_slots; slots.reg_slots ]
  in
  (match Launch.phased k with
  | None ->
    add out
      "let body (tid : int) (bid : int) (bufs : float array array) : int =\n";
    add out "  ignore tid; ignore bid; ignore bufs;\n";
    add out "  let stmts = ref 0 in\n";
    Array.iter
      (fun sb ->
        add out (bind "  " sb);
        dims sb)
      all;
    emit_stmt st Int_map.empty out 2 k.Kernel.body;
    add out "  !stmts\n\nlet entry = R.Thread body\n"
  | Some uniform ->
    add out
      "let block (bid : int) (tbufs : float array array array) : int =\n";
    add out "  ignore bid;\n";
    add out "  let total = ref 0 in\n";
    add out "  let iv = R.interval (Array.init (Array.length tbufs) Fun.id) in\n";
    add out "  let bufs = tbufs.(0) in\n";
    Array.iter (fun sb -> add out (bind "  " sb)) slots.global_slots;
    Array.iter (fun sb -> add out (bind "  " sb)) slots.shared_slots;
    Array.iter dims all;
    let tp =
      String.concat ""
        ("      let bufs = Array.unsafe_get tbufs tid in\n"
        :: List.map (bind "      ")
             (Array.to_list (Array.append slots.warp_slots slots.reg_slots)))
    in
    let p = { text = Stdlib.Buffer.create 1024; binds = [] } in
    let live = emit_phased st uniform tp Int_map.empty [] out 2 p k.Kernel.body in
    materialize out "  " tp live p;
    add out "  R.flush iv;\n  !total\n\nlet entry = R.Block block\n");
  (Stdlib.Buffer.contents out, slots)

let source k = fst (codegen k)

(* ------------------------------------------------------------------ *)
(* Toolchain probe                                                    *)
(* ------------------------------------------------------------------ *)

type toolchain = {
  ocamlfind : string;
  inc_flags : string;  (** -I flags for every library's .cmi directory *)
  scratch : string;  (** per-process scratch dir for .ml/.cmxs files *)
}

let path_sep = if Sys.win32 then ';' else ':'

let find_in_path prog =
  match Sys.getenv_opt "PATH" with
  | None -> None
  | Some path ->
    String.split_on_char path_sep path
    |> List.find_map (fun dir ->
           if dir = "" then None
           else
             let p = Filename.concat dir prog in
             if Sys.file_exists p then Some p else None)

let is_dir p = try Sys.is_directory p with Sys_error _ -> false

(* Executables live in _build/default/{bin,test,bench}; every library's
   .cmi files sit at _build/default/lib/<x>/.<name>.objs/byte and its .cmx
   files at .../native. Both matter: without the .cmx in scope, ocamlopt
   cannot resolve the [Hidet_gpu] wrapper alias statically and records a
   hard implementation dependency on the wrapper unit, which Dynlink then
   refuses to satisfy. *)
let include_dirs () =
  let root = Filename.concat (Filename.dirname Sys.executable_name) ".." in
  let lib = Filename.concat root "lib" in
  if not (is_dir lib) then []
  else
    Sys.readdir lib |> Array.to_list
    |> List.concat_map (fun d ->
           let dd = Filename.concat lib d in
           if not (is_dir dd) then []
           else
             Sys.readdir dd |> Array.to_list
             |> List.concat_map (fun o ->
                    if Filename.check_suffix o ".objs" then
                      List.filter is_dir
                        [
                          Filename.concat (Filename.concat dd o) "byte";
                          Filename.concat (Filename.concat dd o) "native";
                        ]
                    else []))

let unit_counter = Atomic.make 0

let m_codegen_us = Metrics.counter "sim.native.codegen_us"
let m_ocamlopt_us = Metrics.counter "sim.native.ocamlopt_us"
let m_dynlink_us = Metrics.counter "sim.native.dynlink_us"
let m_units = Metrics.counter "sim.native.units"
let m_memo_hits = Metrics.counter "sim.native.memo_hits"

let timed counter f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Metrics.add counter (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  r

let read_file path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error _ | End_of_file -> ""

(* Compile one generated unit and claim its registered entry point. The
   unit (file and module) name is unique per process, so privately
   dynlinked modules never collide. *)
let build tc body_src : Exec_registry.body =
  let name =
    Printf.sprintf "hidet_kernel_%d_%d" (Unix.getpid ())
      (Atomic.fetch_and_add unit_counter 1)
  in
  let ml = Filename.concat tc.scratch (name ^ ".ml") in
  let cmxs = Filename.concat tc.scratch (name ^ ".cmxs") in
  let errf = ml ^ ".err" in
  let oc = open_out ml in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc body_src;
      output_string oc (Printf.sprintf "\nlet () = R.register %S entry\n" name));
  let cmd =
    Printf.sprintf "%s ocamlopt -shared -w -a %s %s -o %s 2>%s"
      (Filename.quote tc.ocamlfind) tc.inc_flags (Filename.quote ml)
      (Filename.quote cmxs) (Filename.quote errf)
  in
  timed m_ocamlopt_us (fun () ->
      Trace.span
        ~attrs:(fun () -> [ ("unit", name) ])
        "sim.native.ocamlopt"
        (fun _ ->
          if Sys.command cmd <> 0 then
            failwith
              (Printf.sprintf "Exec_ocaml: ocamlopt failed on %s: %s" ml
                 (String.trim (read_file errf)))));
  timed m_dynlink_us (fun () ->
      Trace.span
        ~attrs:(fun () -> [ ("unit", name) ])
        "sim.native.dynlink"
        (fun _ ->
          try Dynlink.loadfile_private cmxs
          with Dynlink.Error e ->
            failwith
              (Printf.sprintf "Exec_ocaml: dynlink failed on %s: %s" cmxs
                 (Dynlink.error_message e))));
  Metrics.incr m_units;
  match Exec_registry.take name with
  | Some entry -> entry
  | None ->
    failwith
      (Printf.sprintf "Exec_ocaml: unit %s loaded but never registered" name)

(* One-shot probe: native Dynlink, ocamlfind on PATH, the build tree's .cmi
   directories, and an end-to-end smoke compile+load of a trivial unit.
   Failure is an [Error reason], never an exception — callers degrade to
   the closure backend with the reason logged. *)
let probe () : (toolchain, string) result =
  if not Dynlink.is_native then
    Error "bytecode host: Dynlink.is_native is false"
  else
    match find_in_path "ocamlfind" with
    | None -> Error "ocamlfind not found on PATH"
    | Some ocamlfind -> (
      let dirs = include_dirs () in
      if
        not
          (List.exists
             (fun d -> Filename.basename (Filename.dirname d) = ".hidet_gpu.objs")
             dirs)
      then
        Error
          (Printf.sprintf
             "no .cmi directories found near %s (not running from a dune \
              build tree?)"
             Sys.executable_name)
      else
        let scratch =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "hidet_native_%d" (Unix.getpid ()))
        in
        (try Sys.mkdir scratch 0o700 with Sys_error _ -> ());
        if not (is_dir scratch) then
          Error (Printf.sprintf "cannot create scratch dir %s" scratch)
        else
          let tc =
            {
              ocamlfind;
              inc_flags =
                String.concat " "
                  (List.map (fun d -> "-I " ^ Filename.quote d) dirs);
              scratch;
            }
          in
          let smoke =
            "module R = Hidet_gpu__Exec_registry\n\
             let entry = R.Thread (fun (_ : int) (_ : int) (_ : float array array) -> 0)\n"
          in
          match build tc smoke with
          | Thread entry when entry 0 0 [||] = 0 -> Ok tc
          | _ -> Error "smoke unit returned garbage"
          | exception Failure msg -> Error msg)

let toolchain_once = lazy (probe ())
let available () = Result.map (fun _ -> ()) (Lazy.force toolchain_once)

(* ------------------------------------------------------------------ *)
(* Compilation with memoization                                       *)
(* ------------------------------------------------------------------ *)

(* Keyed on the MD5 of the source text, not the text: the memo lives as
   long as the process, and a unit's source runs to tens of kilobytes. *)
let memo : (Digest.t, Exec_registry.body) Hashtbl.t = Hashtbl.create 16
let memo_lock = Mutex.create ()

let compile (k : Kernel.t) : Launch.t =
  let tc =
    match Lazy.force toolchain_once with
    | Ok tc -> tc
    | Error reason ->
      failwith ("Exec_ocaml: native backend unavailable: " ^ reason)
  in
  Verify.kernel_exn k;
  let src, slots =
    timed m_codegen_us (fun () ->
        Trace.span
          ~attrs:(fun () -> [ ("kernel", k.Kernel.name) ])
          "sim.native.codegen"
          (fun _ -> codegen k))
  in
  (* Codegen runs every call, since the memo is keyed by its output, and it
     is not cheap: ~0.2-0.3 ms a tiny-model kernel on a 2-vCPU host, more
     than that kernel's native run. ocamlopt + dynlink run once per
     distinct source. *)
  let entry =
    Mutex.lock memo_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock memo_lock)
      (fun () ->
        let key = Digest.string src in
        match Hashtbl.find_opt memo key with
        | Some e ->
          Metrics.incr m_memo_hits;
          e
        | None ->
          let e = build tc src in
          Hashtbl.replace memo key e;
          e)
  in
  (* Each binding returns a closure of the runner's own arity: a partial
     application would allocate on every call. *)
  Launch.make k slots
    (match entry with
    | Exec_registry.Thread entry ->
      Launch.Thread
        (fun bufs ->
          let run tid bid = entry tid bid bufs in
          run)
    | Block block ->
      Block
        (fun tbufs ->
          let run bid = block bid tbufs in
          run))
