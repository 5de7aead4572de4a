open Hidet_ir
module Metrics = Hidet_obs.Metrics
module Trace = Hidet_obs.Trace
module Int_map = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* Runtime state                                                      *)
(* ------------------------------------------------------------------ *)

(* Everything mutable lives here, one record per simulated thread, so the
   compiled closures themselves are immutable and safe to share across the
   domains running different blocks. A launch builds the frames once per
   thread storage and reuses them for every thread and block it runs. *)
type rt = {
  bufs : float array array;  (** buffer slot -> backing storage *)
  ints : int array;  (** int frame: the pinned slots below, then variables *)
  floats : float array;
  bools : bool array;
  vals : Expr.value array;  (** boxed fallback frame (rare) *)
  li : int array;  (** lane-nest int and bool rows, shared by a block's frames *)
  lf : float array;  (** lane-nest float rows, likewise *)
  mutable stmts : int;  (** statements executed by this thread *)
}

(* Pinned int-frame slots, written when a thread starts: [threadIdx] and
   [blockIdx] are then ordinary slot operands, and the zero slot pads an
   access with fewer than two slot-indexed dimensions. *)
let tid_slot = 0
let bid_slot = 1
let zero_slot = 2
let pinned_ints = 3

let invalid_access msg = raise (Interp.Invalid_access msg)

(* Kept out of line: the bounds checks it ends are inlined into every hot
   closure. *)
let[@inline never] oob i d name =
  invalid_access
    (Printf.sprintf "Buffer.flat_index: index %d out of bound %d on %s" i d
       name)

let not_allocated (b : Buffer.t) =
  invalid_access
    (Printf.sprintf "buffer %s (%s) not allocated" b.Buffer.name
       (Buffer.scope_name b.Buffer.scope))

(* An int operand, classified at compile time: a constant, an int frame
   slot (variables, [threadIdx], [blockIdx]) or a general closure. A parent
   reads the first two inline, so a leaf costs no closure call. *)
type iop = K of int | S of int | F of (rt -> int)

(* ------------------------------------------------------------------ *)
(* Compile-time state                                                 *)
(* ------------------------------------------------------------------ *)

(* Frame slots are allocated with stack discipline while walking the
   statement tree: sibling scopes reuse the same slots, and the high-water
   mark gives the frame size. Binder int slots stay below the kernel's
   deepest [For]/[Let] nesting, and hoisted ones are numbered from there
   up. *)
type cstate = {
  buf_slot : (int, int) Hashtbl.t;  (** Buffer.id -> bufs slot *)
  mutable next_int : int;
  mutable next_float : int;
  mutable max_float : int;
  mutable next_bool : int;
  mutable max_bool : int;
  mutable next_dyn : int;
  mutable max_dyn : int;
  scopes : scope array;  (** the open hoisting scopes, by depth *)
  mutable depth : int;  (** depth of the innermost open scope *)
  slot_depth : (int, int) Hashtbl.t;
      (** int slot -> depth of the scope that sets it *)
  mutable next_hoist : int;
  mutable nesting : bool;  (** [For] tries the nests: off inside an [unroll] [For] *)
  mutable nests : int;
  mutable fma_nests : int;
  n_globals : int;  (** buffer slots below this are parameters *)
  mutable lane_nests : int;
  mutable n_li : int;  (** lane-nest cells: each nest's rows are its own *)
  mutable n_lf : int;
  lconsts : (int array, int) Hashtbl.t;
      (** constant int cells by value (their first cell): no nest writes
          one, so nests share them *)
  mutable lf_init : (int * float) list;  (** constant float cells *)
}

(* A hoisting scope: the thread entry (depth 0), one [For] iteration or an
   int [Let]. An invariant int subexpression of the scope's body is
   computed once per entry into its own slot, above the binder stack, so no
   sibling scope can reuse it. [memo] makes equal subexpressions share one
   slot; [inits] lists (slot, computation), newest first, each after the
   subexpressions it reads. *)
and scope = {
  memo : (hkey, int) Hashtbl.t;
  mutable inits : (int * (rt -> int)) list;
}

(* A hoisted subexpression: its operator over operands already compiled to
   constants or slots (never [F]). A slot, not a variable, names an operand:
   within a scope a slot holds one binding, while a variable name can be
   bound twice. *)
and hkey = Bin of Expr.binop * iop * iop | Un of Expr.unop * iop

type vslot = S_int of int | S_float of int | S_bool of int | S_dyn of int

let push_int st =
  let s = st.next_int in
  st.next_int <- s + 1;
  s

let push_float st =
  let s = st.next_float in
  st.next_float <- s + 1;
  if st.next_float > st.max_float then st.max_float <- st.next_float;
  s

let push_bool st =
  let s = st.next_bool in
  st.next_bool <- s + 1;
  if st.next_bool > st.max_bool then st.max_bool <- st.next_bool;
  s

let push_dyn st =
  let s = st.next_dyn in
  st.next_dyn <- s + 1;
  if st.next_dyn > st.max_dyn then st.max_dyn <- st.next_dyn;
  s

(* ------------------------------------------------------------------ *)
(* Operands                                                           *)
(* ------------------------------------------------------------------ *)

let[@inline] sl rt s = Array.unsafe_get rt.ints s
let[@inline] rd o rt = match o with K n -> n | S s -> sl rt s | F f -> f rt

(* A buffer access whose indices are all constants or frame slots, at most
   three of them slots: the flat offset is [base] (the constant indices)
   plus three strided slot terms, padded with the zero slot (extent 1,
   stride 0). The slot terms keep dimension order, so the bounds checks fail
   on the reference's first failing index; constant indices are checked at
   compile time (an out-of-bounds one keeps the general path). *)
type acc = {
  buf : int;  (** bufs slot *)
  base : int;
  s0 : int;
  d0 : int;
  st0 : int;
  s1 : int;
  d1 : int;
  st1 : int;
  s2 : int;
  d2 : int;
  st2 : int;
  name : string;
}

let[@inline] addr a rt =
  let i0 = sl rt a.s0 in
  let i1 = sl rt a.s1 in
  let i2 = sl rt a.s2 in
  if i0 < 0 || i0 >= a.d0 then oob i0 a.d0 a.name;
  if i1 < 0 || i1 >= a.d1 then oob i1 a.d1 a.name;
  if i2 < 0 || i2 >= a.d2 then oob i2 a.d2 a.name;
  a.base + (i0 * a.st0) + (i1 * a.st1) + (i2 * a.st2)

(* A float operand: a constant, a float frame slot, a slot-indexed load or
   a general closure. Without flambda a closure returning [float] boxes its
   result; a parent that reads its operands through [frd] keeps the first
   three unboxed end to end. *)
type fop = Fk of float | Fs of int | Fa of acc | Ff of (rt -> float)

let[@inline] frd o rt =
  match o with
  | Fk x -> x
  | Fs s -> Array.unsafe_get rt.floats s
  | Fa a -> Array.unsafe_get (Array.unsafe_get rt.bufs a.buf) (addr a rt)
  | Ff f -> f rt

(* ------------------------------------------------------------------ *)
(* Expression compilation                                             *)
(* ------------------------------------------------------------------ *)

(* A compiled expression at its statically inferred type. [C_dyn] is the
   boxed escape hatch for expressions whose type depends on runtime control
   flow (a [Select] whose branches differ in type); it dispatches
   exactly like [Expr.eval], so parity with the reference interpreter holds
   even there. *)
type cexpr =
  | C_int of iop
  | C_float of fop
  | C_bool of (rt -> bool)
  | C_dyn of (rt -> Expr.value)

(* Coercions mirror [Expr.int_of_value] / [float_of_value] /
   [bool_of_value] exactly: int_of_float truncates, bools read as 1/0,
   numbers test as <> 0. *)
let as_int = function
  | C_int o -> o
  | C_float o -> F (fun rt -> int_of_float (frd o rt))
  | C_bool f -> F (fun rt -> if f rt then 1 else 0)
  | C_dyn f -> F (fun rt -> Expr.int_of_value (f rt))

let as_float = function
  | C_float o -> o
  | C_int (K n) -> Fk (float_of_int n)
  | C_int o -> Ff (fun rt -> float_of_int (rd o rt))
  | C_bool f -> Ff (fun rt -> if f rt then 1. else 0.)
  | C_dyn f -> Ff (fun rt -> Expr.float_of_value (f rt))

let as_bool = function
  | C_bool f -> f
  | C_int o -> fun rt -> rd o rt <> 0
  | C_float o -> fun rt -> frd o rt <> 0.
  | C_dyn f -> fun rt -> Expr.bool_of_value (f rt)

let as_value = function
  | C_int o -> fun rt -> Expr.V_int (rd o rt)
  | C_float o -> fun rt -> Expr.V_float (frd o rt)
  | C_bool f -> fun rt -> Expr.V_bool (f rt)
  | C_dyn f -> f

(* The slot-indexed form of an access, when it has one. *)
let access (buf : Buffer.t) slot (cidx : iop array) : acc option =
  let dims = Array.of_list buf.Buffer.dims in
  let r = Array.length dims in
  if Array.length cidx <> r then None
  else begin
    let strides = Array.make r 1 in
    for p = r - 2 downto 0 do
      strides.(p) <- strides.(p + 1) * dims.(p + 1)
    done;
    let rec go p base terms =
      if p = r then Some (base, List.rev terms)
      else
        match cidx.(p) with
        | K i when i >= 0 && i < dims.(p) ->
          go (p + 1) (base + (i * strides.(p))) terms
        | S s -> go (p + 1) base ((s, dims.(p), strides.(p)) :: terms)
        | K _ | F _ -> None
    in
    let pad = (zero_slot, 1, 0) in
    let mk base (s0, d0, st0) (s1, d1, st1) (s2, d2, st2) =
      Some
        { buf = slot; base; s0; d0; st0; s1; d1; st1; s2; d2; st2;
          name = buf.Buffer.name }
    in
    match go 0 0 [] with
    | Some (base, []) -> mk base pad pad pad
    | Some (base, [ t0 ]) -> mk base t0 pad pad
    | Some (base, [ t0; t1 ]) -> mk base t0 t1 pad
    | Some (base, [ t0; t1; t2 ]) -> mk base t0 t1 t2
    | _ -> None
  end

(* Flat index with [Buffer.flat_index]'s exact left-to-right per-dimension
   bounds checks, strength-reduced to stride arithmetic. All indices are
   evaluated (left to right) before any check runs, matching the reference
   interpreter's [List.map eval_int]-then-[flat_index] order: the loop notes
   the first index out of bounds and raises after the last one. No call
   allocates. *)
let comp_flat_read (buf : Buffer.t) (cidx : iop array) slot : rt -> float =
  let name = buf.Buffer.name in
  let dims = Array.of_list buf.Buffer.dims in
  let n = Array.length dims in
  if Array.length cidx <> n then fun rt ->
    Array.iter (fun c -> ignore (rd c rt)) cidx;
    invalid_access (Printf.sprintf "Buffer.flat_index: rank mismatch on %s" name)
  else fun rt ->
    let off = ref 0 and bad = ref (-1) and bad_i = ref 0 in
    for p = 0 to n - 1 do
      let i = rd (Array.unsafe_get cidx p) rt and d = Array.unsafe_get dims p in
      if !bad < 0 && (i < 0 || i >= d) then begin
        bad := p;
        bad_i := i
      end;
      off := (!off * d) + i
    done;
    if !bad >= 0 then oob !bad_i dims.(!bad) name;
    Array.unsafe_get rt.bufs.(slot) !off

(* Int division by a constant reads its dividend without [rd]'s
   dispatch. The right operand is read first, as OCaml evaluates
   [f a / f b], so a pair of failing operands raises what it always did. *)
let div a b =
  match (a, b) with
  | S x, K d -> F (fun rt -> sl rt x / d)
  | F f, K d -> F (fun rt -> f rt / d)
  | _ -> F (fun rt -> let y = rd b rt in rd a rt / y)

let rem a b =
  match (a, b) with
  | S x, K d -> F (fun rt -> sl rt x mod d)
  | F f, K d -> F (fun rt -> f rt mod d)
  | _ -> F (fun rt -> let y = rd b rt in rd a rt mod y)

let int_binop op a b : cexpr =
  match op with
  | Expr.Add -> C_int (F (fun rt -> let y = rd b rt in rd a rt + y))
  | Sub -> C_int (F (fun rt -> let y = rd b rt in rd a rt - y))
  | Mul -> C_int (F (fun rt -> let y = rd b rt in rd a rt * y))
  | Div -> C_int (div a b)
  | Mod -> C_int (rem a b)
  | Min ->
    C_int (F (fun rt -> let y = rd b rt in let x = rd a rt in if x <= y then x else y))
  | Max ->
    C_int (F (fun rt -> let y = rd b rt in let x = rd a rt in if x >= y then x else y))
  | Lt -> C_bool (fun rt -> let y = rd b rt in rd a rt < y)
  | Le -> C_bool (fun rt -> let y = rd b rt in rd a rt <= y)
  | Gt -> C_bool (fun rt -> let y = rd b rt in rd a rt > y)
  | Ge -> C_bool (fun rt -> let y = rd b rt in rd a rt >= y)
  | Eq -> C_bool (fun rt -> let y = rd b rt in rd a rt = y)
  | Ne -> C_bool (fun rt -> let y = rd b rt in rd a rt <> y)
  | And | Or -> assert false

(* Float arithmetic over [frd] operands: one closure, one boxed result. *)
let float_binop op a b : cexpr =
  match op with
  | Expr.Add -> C_float (Ff (fun rt -> let y = frd b rt in frd a rt +. y))
  | Sub -> C_float (Ff (fun rt -> let y = frd b rt in frd a rt -. y))
  | Mul -> C_float (Ff (fun rt -> let y = frd b rt in frd a rt *. y))
  | Div -> C_float (Ff (fun rt -> let y = frd b rt in frd a rt /. y))
  | Mod -> C_float (Ff (fun rt -> let y = frd b rt in Float.rem (frd a rt) y))
  | Min -> C_float (Ff (fun rt -> let y = frd b rt in Float.min (frd a rt) y))
  | Max -> C_float (Ff (fun rt -> let y = frd b rt in Float.max (frd a rt) y))
  | Lt -> C_bool (fun rt -> let y = frd b rt in frd a rt < y)
  | Le -> C_bool (fun rt -> let y = frd b rt in frd a rt <= y)
  | Gt -> C_bool (fun rt -> let y = frd b rt in frd a rt > y)
  | Ge -> C_bool (fun rt -> let y = frd b rt in frd a rt >= y)
  | Eq -> C_bool (fun rt -> let y = frd b rt in frd a rt = y)
  | Ne -> C_bool (fun rt -> let y = frd b rt in frd a rt <> y)
  | And | Or -> assert false

(* An arithmetic or comparison binop over compiled operands, with
   [Expr.eval]'s typing: int x int stays int, a mix promotes to float. *)
let arith op xa xb =
  match (xa, xb) with
  | (C_dyn _, _ | _, C_dyn _) ->
    (* Statically untypeable operand: fall back to [Expr.eval]'s exact
       dynamic dispatch (including the bool-operand rejection). *)
    let fa = as_value xa and fb = as_value xb in
    C_dyn
      (fun rt ->
        let va = fa rt in
        let vb = fb rt in
        match (va, vb) with
        | Expr.V_int x, Expr.V_int y -> Expr.eval_int_binop op x y
        | (V_float _ | V_int _), (V_float _ | V_int _) ->
          Expr.eval_float_binop op (Expr.float_of_value va)
            (Expr.float_of_value vb)
        | _ -> invalid_arg "Expr.eval: bool operand to arithmetic binop")
  | (C_bool _, _ | _, C_bool _) ->
    (* [Expr.eval] evaluates both operands first, then rejects. *)
    let fa = as_value xa and fb = as_value xb in
    C_int
      (F
         (fun rt ->
           ignore (fa rt);
           ignore (fb rt);
           invalid_arg "Expr.eval: bool operand to arithmetic binop"))
  | C_int oa, C_int ob -> int_binop op oa ob
  | _ ->
    (* Mixed int/float promotes to float, exactly like [eval_binop]. *)
    float_binop op (as_float xa) (as_float xb)

(* Index arithmetic computed once per scope. An int operand is invariant in
   a scope when it is a constant or a slot that scope or an enclosing one
   sets; its depth is the innermost such scope. Only [Add], [Sub], [Mul],
   [Min], [Max], [Neg], [Abs] and [Div]/[Mod] by a non-zero constant
   combine invariant operands: none of them can raise, so computing one
   early, or when its statement is never reached, changes nothing a thread
   can observe. *)
let opnd_depth st = function
  | K _ -> Some 0
  | S s -> Hashtbl.find_opt st.slot_depth s
  | F _ -> None

let hoist_depth st op oa ob =
  let pure =
    match (op, ob) with
    | (Expr.Add | Sub | Mul | Min | Max), _ -> true
    | (Div | Mod), K d -> d <> 0
    | _ -> false
  in
  match (pure, opnd_depth st oa, opnd_depth st ob) with
  | true, Some da, Some db -> Some (max da db)
  | _ -> None

(* The slot holding [key] in scope [d]: shared with an equal subexpression
   already there, or a new one that the scope's entry computes by [mk ()]. *)
let hoist st d key (mk : unit -> iop) =
  let sc = st.scopes.(d) in
  match Hashtbl.find_opt sc.memo key with
  | Some s -> S s
  | None ->
    let f = match mk () with F f -> f | o -> fun rt -> rd o rt in
    let s = st.next_hoist in
    st.next_hoist <- s + 1;
    Hashtbl.replace sc.memo key s;
    Hashtbl.replace st.slot_depth s d;
    sc.inits <- (s, f) :: sc.inits;
    S s

let hoist_unop st op o f =
  match opnd_depth st o with
  | Some d -> hoist st d (Un (op, o)) (fun () -> F f)
  | None -> F f

let rec comp st (venv : vslot Int_map.t) (e : Expr.t) : cexpr =
  match e with
  | Expr.Int n -> C_int (K n)
  | Float f -> C_float (Fk f)
  | Bool b -> C_bool (fun _ -> b)
  | Thread_idx -> C_int (S tid_slot)
  | Block_idx -> C_int (S bid_slot)
  | Var v -> (
    match Int_map.find_opt v.Var.id venv with
    | Some (S_int s) -> C_int (S s)
    | Some (S_float s) -> C_float (Fs s)
    | Some (S_bool s) -> C_bool (fun rt -> rt.bools.(s))
    | Some (S_dyn s) -> C_dyn (fun rt -> rt.vals.(s))
    | None ->
      (* Rejected by the verifier; kept for parity with [Interp]'s runtime
         error should an unverified kernel ever reach execution. *)
      let msg = Printf.sprintf "unbound variable %s" (Var.name v) in
      C_dyn (fun _ -> invalid_access msg))
  | Load (buf, idx) -> C_float (comp_load st venv buf idx)
  | Select (c, a, b) -> (
    let cc = as_bool (comp st venv c) in
    let xa = comp st venv a and xb = comp st venv b in
    match (xa, xb) with
    | C_int oa, C_int ob ->
      C_int (F (fun rt -> if cc rt then rd oa rt else rd ob rt))
    | C_bool fa, C_bool fb -> C_bool (fun rt -> if cc rt then fa rt else fb rt)
    | C_float oa, C_float ob ->
      C_float (Ff (fun rt -> if cc rt then frd oa rt else frd ob rt))
    | _ ->
      (* Branches of two types: the taken one's type, as [Expr.eval]
         decides it. *)
      let fa = as_value xa and fb = as_value xb in
      C_dyn (fun rt -> if cc rt then fa rt else fb rt))
  | Unop (op, a) -> comp_unop st venv op a
  | Binop (op, a, b) -> comp_binop st venv op a b

and comp_load st venv (buf : Buffer.t) idx : fop =
  let cidx = Array.of_list (List.map (fun i -> as_int (comp st venv i)) idx) in
  match Hashtbl.find_opt st.buf_slot buf.Buffer.id with
  | Some slot -> (
    match access buf slot cidx with
    | Some a -> Fa a
    | None -> Ff (comp_flat_read buf cidx slot))
  | None ->
    Ff
      (fun rt ->
        Array.iter (fun c -> ignore (rd c rt)) cidx;
        not_allocated buf)

and comp_unop st venv op a =
  match op with
  | Expr.Not ->
    let f = as_bool (comp st venv a) in
    C_bool (fun rt -> not (f rt))
  | Neg -> (
    match comp st venv a with
    | C_int o -> C_int (hoist_unop st op o (fun rt -> -rd o rt))
    | C_float o -> C_float (Ff (fun rt -> -.frd o rt))
    | C_bool f ->
      (* [Expr.eval] evaluates the operand, then rejects it. *)
      C_int
        (F
           (fun rt ->
             ignore (f rt);
             invalid_arg "Expr.eval: neg of bool"))
    | C_dyn f ->
      C_dyn
        (fun rt ->
          match f rt with
          | Expr.V_int n -> Expr.V_int (-n)
          | V_float x -> V_float (-.x)
          | V_bool _ -> invalid_arg "Expr.eval: neg of bool"))
  | Abs -> (
    match comp st venv a with
    | C_int o -> C_int (hoist_unop st op o (fun rt -> Stdlib.abs (rd o rt)))
    | C_float o -> C_float (Ff (fun rt -> Float.abs (frd o rt)))
    | C_bool f ->
      C_int
        (F
           (fun rt ->
             ignore (f rt);
             invalid_arg "Expr.eval: abs of bool"))
    | C_dyn f ->
      C_dyn
        (fun rt ->
          match f rt with
          | Expr.V_int n -> Expr.V_int (Stdlib.abs n)
          | V_float x -> V_float (Float.abs x)
          | V_bool _ -> invalid_arg "Expr.eval: abs of bool"))
  | Exp ->
    let o = as_float (comp st venv a) in
    C_float (Ff (fun rt -> Stdlib.exp (frd o rt)))
  | Log ->
    let o = as_float (comp st venv a) in
    C_float (Ff (fun rt -> Stdlib.log (frd o rt)))
  | Sqrt ->
    let o = as_float (comp st venv a) in
    C_float (Ff (fun rt -> Stdlib.sqrt (frd o rt)))
  | Tanh ->
    let o = as_float (comp st venv a) in
    C_float (Ff (fun rt -> Stdlib.tanh (frd o rt)))
  | Erf ->
    let o = as_float (comp st venv a) in
    C_float (Ff (fun rt -> Expr.erf (frd o rt)))

and comp_binop st venv op a b =
  match op with
  | Expr.And ->
    let fa = as_bool (comp st venv a) and fb = as_bool (comp st venv b) in
    C_bool (fun rt -> fa rt && fb rt)
  | Or ->
    let fa = as_bool (comp st venv a) and fb = as_bool (comp st venv b) in
    C_bool (fun rt -> fa rt || fb rt)
  | _ -> (
    match (comp st venv a, comp st venv b) with
    | C_int oa, C_int ob -> (
      match hoist_depth st op oa ob with
      | Some d ->
        C_int
          (hoist st d (Bin (op, oa, ob)) (fun () ->
               match int_binop op oa ob with C_int o -> o | _ -> assert false))
      | None -> int_binop op oa ob)
    | xa, xb -> arith op xa xb)

(* ------------------------------------------------------------------ *)
(* Statement compilation                                              *)
(* ------------------------------------------------------------------ *)

let noop (_ : rt) = ()

(* Store evaluates all indices (left to right), then the value, then
   resolves the buffer, then bounds-checks — the reference interpreter's
   exact order, so a failing statement raises the same error at the same
   point. A slot-indexed store has no index to evaluate; any other notes
   its first index out of bounds, as [comp_flat_read] does, and raises
   after the value. *)
let comp_store st venv (buf : Buffer.t) indices value : rt -> unit =
  let cidx =
    Array.of_list (List.map (fun i -> as_int (comp st venv i)) indices)
  in
  let cv = as_float (comp st venv value) in
  let name = buf.Buffer.name in
  let dims = Array.of_list buf.Buffer.dims in
  let n = Array.length dims in
  let generic_fail fail rt =
    rt.stmts <- rt.stmts + 1;
    Array.iter (fun c -> ignore (rd c rt)) cidx;
    ignore (frd cv rt);
    fail ()
  in
  match Hashtbl.find_opt st.buf_slot buf.Buffer.id with
  | None -> generic_fail (fun () -> not_allocated buf)
  | Some slot -> (
    match (access buf slot cidx, cv) with
    | Some a, Ff f ->
      fun rt ->
        rt.stmts <- rt.stmts + 1;
        let v = f rt in
        let off = addr a rt in
        Array.unsafe_set (Array.unsafe_get rt.bufs a.buf) off v
    | Some a, _ ->
      fun rt ->
        rt.stmts <- rt.stmts + 1;
        let v = frd cv rt in
        let off = addr a rt in
        Array.unsafe_set (Array.unsafe_get rt.bufs a.buf) off v
    | None, _ when Array.length cidx <> n ->
      generic_fail (fun () ->
          invalid_access
            (Printf.sprintf "Buffer.flat_index: rank mismatch on %s" name))
    | None, _ ->
      fun rt ->
        rt.stmts <- rt.stmts + 1;
        let off = ref 0 and bad = ref (-1) and bad_i = ref 0 in
        for p = 0 to n - 1 do
          let i = rd (Array.unsafe_get cidx p) rt and d = Array.unsafe_get dims p in
          if !bad < 0 && (i < 0 || i >= d) then begin
            bad := p;
            bad_i := i
          end;
          off := (!off * d) + i
        done;
        let v = frd cv rt in
        if !bad >= 0 then oob !bad_i dims.(!bad) name;
        Array.unsafe_set rt.bufs.(slot) !off v)

(* Evaluate an offset list left to right into a fresh array (fresh per
   execution: compiled closures are shared across domains). *)
let eval_offs (co : iop array) rt =
  let n = Array.length co in
  let o = Array.make n 0 in
  for p = 0 to n - 1 do
    o.(p) <- rd co.(p) rt
  done;
  o

(* MMA: lane 0 of each warp multiplies an [m x k] by a [k x n] tile into an
   [m x n] accumulator. The reference rebuilds an index list per element
   ([List.mapi]); here the tile origin is flattened once and elements are
   addressed as [origin + row * leading_stride + col]. Per-element bounds
   checks on the two trailing dims are kept (offsets are runtime values);
   leading-dim checks are hoisted out of the loops since their indices are
   loop-invariant. The only observable deviation from the reference is
   which error surfaces when several operands are simultaneously out of
   bounds — unreachable for verified kernels. *)
let comp_mma st venv (m : Stmt.mma) : rt -> unit =
  let comp_offs l =
    Array.of_list (List.map (fun e -> as_int (comp st venv e)) l)
  in
  let ca_off = comp_offs m.a_off
  and cb_off = comp_offs m.b_off
  and cc_off = comp_offs m.c_off in
  let slot (b : Buffer.t) = Hashtbl.find_opt st.buf_slot b.Buffer.id in
  (* Leading-dim check + tile-origin flattening (trailing dims zeroed). *)
  let origin name (dims : int array) r (base : int array) =
    let acc = ref 0 in
    for p = 0 to r - 1 do
      let d = dims.(p) in
      if p < r - 2 then begin
        let i = base.(p) in
        if i < 0 || i >= d then oob i d name;
        acc := (!acc * d) + i
      end
      else acc := !acc * d
    done;
    !acc
  in
  match (slot m.a, slot m.b, slot m.c) with
  | Some sa, Some sb, Some sc
    when Buffer.rank m.a >= 2 && Buffer.rank m.b >= 2 && Buffer.rank m.c >= 2
    ->
    let dims_of (b : Buffer.t) = Array.of_list b.Buffer.dims in
    let a_dims = dims_of m.a and b_dims = dims_of m.b and c_dims = dims_of m.c in
    let a_r = Array.length a_dims
    and b_r = Array.length b_dims
    and c_r = Array.length c_dims in
    let a_name = m.a.Buffer.name
    and b_name = m.b.Buffer.name
    and c_name = m.c.Buffer.name in
    let a_rdim = a_dims.(a_r - 2) and a_cdim = a_dims.(a_r - 1) in
    let b_rdim = b_dims.(b_r - 2) and b_cdim = b_dims.(b_r - 1) in
    let c_rdim = c_dims.(c_r - 2) and c_cdim = c_dims.(c_r - 1) in
    let mm = m.m and nn = m.n and kk = m.k in
    fun rt ->
      rt.stmts <- rt.stmts + 1;
      if rt.ints.(tid_slot) mod Kernel.warp_size = 0 then begin
        let ao = eval_offs ca_off rt in
        let bo = eval_offs cb_off rt in
        let co = eval_offs cc_off rt in
        let aarr = rt.bufs.(sa)
        and barr = rt.bufs.(sb)
        and carr = rt.bufs.(sc) in
        let c0 = origin c_name c_dims c_r co in
        let b0 = origin b_name b_dims b_r bo in
        let a0 = origin a_name a_dims a_r ao in
        let ar0 = ao.(a_r - 2) and ac0 = ao.(a_r - 1) in
        let br0 = bo.(b_r - 2) and bc0 = bo.(b_r - 1) in
        let cr0 = co.(c_r - 2) and cc0 = co.(c_r - 1) in
        for i = 0 to mm - 1 do
          for j = 0 to nn - 1 do
            let ri = cr0 + i and cj = cc0 + j in
            if ri < 0 || ri >= c_rdim then oob ri c_rdim c_name;
            if cj < 0 || cj >= c_cdim then oob cj c_cdim c_name;
            let cix = c0 + (ri * c_cdim) + cj in
            let acc = ref carr.(cix) in
            for k = 0 to kk - 1 do
              let brk = br0 + k and bcj = bc0 + j in
              if brk < 0 || brk >= b_rdim then oob brk b_rdim b_name;
              if bcj < 0 || bcj >= b_cdim then oob bcj b_cdim b_name;
              let ari = ar0 + i and ack = ac0 + k in
              if ari < 0 || ari >= a_rdim then oob ari a_rdim a_name;
              if ack < 0 || ack >= a_cdim then oob ack a_cdim a_name;
              acc :=
                !acc
                +. aarr.(a0 + (ari * a_cdim) + ack)
                   *. barr.(b0 + (brk * b_cdim) + bcj)
            done;
            carr.(cix) <- !acc
          done
        done
      end
  | sa, sb, sc ->
    (* Undeclared operand or rank < 2: both rejected by the verifier; keep
       the reference's runtime behaviour for robustness. *)
    let first_missing =
      List.find_opt
        (fun (s, _) -> s = None)
        [ (sa, m.a); (sb, m.b); (sc, m.c) ]
    in
    fun rt ->
      rt.stmts <- rt.stmts + 1;
      if rt.ints.(tid_slot) mod Kernel.warp_size = 0 then begin
        ignore (eval_offs ca_off rt);
        ignore (eval_offs cb_off rt);
        ignore (eval_offs cc_off rt);
        match first_missing with
        | Some (_, b) -> not_allocated b
        | None ->
          invalid_access
            (Printf.sprintf "mma operand of rank < 2 on %s" m.c.Buffer.name)
      end

(* Scopes open and close around a binder's body, which sees the binder's
   [slot] at the new depth. Closing one gives the code its entry runs, if
   it hoisted anything. *)
let new_scope () = { memo = Hashtbl.create 8; inits = [] }

let enter_scope st slot =
  st.depth <- st.depth + 1;
  st.scopes.(st.depth) <- new_scope ();
  Hashtbl.replace st.slot_depth slot st.depth

let leave_scope st : (rt -> unit) option =
  let sc = st.scopes.(st.depth) in
  st.depth <- st.depth - 1;
  match List.rev sc.inits with
  | [] -> None
  | [ (s, f) ] -> Some (fun rt -> Array.unsafe_set rt.ints s (f rt))
  | inits ->
    let slots = Array.of_list (List.map fst inits) in
    let fs = Array.of_list (List.map snd inits) in
    let n = Array.length slots in
    Some
      (fun rt ->
        for j = 0 to n - 1 do
          let v = (Array.unsafe_get fs j) rt in
          Array.unsafe_set rt.ints (Array.unsafe_get slots j) v
        done)

let with_init init body =
  match init with
  | None -> body
  | Some init ->
    fun rt ->
      init rt;
      body rt

(* ------------------------------------------------------------------ *)
(* Register-tile nests                                                *)
(* ------------------------------------------------------------------ *)

(* A role's flat base: [k] plus each slot times its stride. *)
type nest_base = { k : int; slots : int array; strides : int array }

let[@inline] nest_base ints b =
  let o = ref b.k in
  for j = 0 to Array.length b.slots - 1 do
    o :=
      !o
      + (Array.unsafe_get ints (Array.unsafe_get b.slots j)
        * Array.unsafe_get b.strides j)
  done;
  !o

(* A register-tile nest ({!Launch.nest}) as one closure. The invariant
   parts compile to hoisted slots, set before the nest runs, and each role's
   base sums them. In range, the nest adds its statement count and runs
   the stores over the elements' offsets, reading [z], [y], then [x] for an
   FMA: nothing there can raise. Out of range, it runs [general], the nest
   compiled the ordinary way, which raises the reference's error at the
   reference's statement. *)
let nest st venv (s : Stmt.t) (general : unit -> rt -> unit) : (rt -> unit) option =
  match Launch.nest s with
  | None -> None
  | Some { roles = [||]; statements; _ } ->
    Some (fun rt -> rt.stmts <- rt.stmts + statements)
  | Some n -> (
    (* Each role's buffer slot and base, and the entry checks (slot,
       lowest value, highest value + 1). *)
    let checks = ref [] in
    let role (r : Launch.nest_role) =
      let terms =
        List.map
          (fun (d : Launch.nest_dim) ->
            match as_int (comp st venv d.inv) with
            | S sl ->
              checks := (sl, d.lo, d.hi) :: !checks;
              (sl, d.stride)
            | K _ | F _ -> raise Exit)
          r.dims
      in
      match Hashtbl.find_opt st.buf_slot r.buf.Buffer.id with
      | None -> raise Exit
      | Some slot ->
        ( slot,
          {
            k = r.base;
            slots = Array.of_list (List.map fst terms);
            strides = Array.of_list (List.map snd terms);
          } )
    in
    match Array.map role n.roles with
    | exception Exit -> None
    | roles ->
      st.nests <- st.nests + 1;
      if n.kind = Launch.Fma then st.fma_nests <- st.fma_nests + 1;
      let count = n.statements and d = n.deltas in
      let ck = Array.of_list !checks in
      let ck_slot = Array.map (fun (s, _, _) -> s) ck
      and ck_lo = Array.map (fun (_, lo, _) -> lo) ck
      and ck_hi = Array.map (fun (_, _, hi) -> hi) ck in
      let nck = Array.length ck in
      let general = if nck = 0 then noop else general () in
      let rec in_range ints j =
        j = nck
        ||
        let v = Array.unsafe_get ints (Array.unsafe_get ck_slot j) in
        v >= Array.unsafe_get ck_lo j
        && v < Array.unsafe_get ck_hi j
        && in_range ints (j + 1)
      in
      let len = Array.length n.fills in
      Some
        (match (n.kind, roles) with
        | Fma, [| (cb, rc); (xb, rx); (yb, ry); (zb, rz) |] ->
          fun rt ->
            let ints = rt.ints in
            if in_range ints 0 then begin
              rt.stmts <- rt.stmts + count;
              let bufs = rt.bufs in
              let c = Array.unsafe_get bufs cb and x = Array.unsafe_get bufs xb in
              let y = Array.unsafe_get bufs yb and z = Array.unsafe_get bufs zb in
              let oc = nest_base ints rc and ox = nest_base ints rx in
              let oy = nest_base ints ry and oz = nest_base ints rz in
              for j = 0 to len - 1 do
                let p = 4 * j in
                let vz = Array.unsafe_get z (oz + Array.unsafe_get d (p + 3)) in
                let vy = Array.unsafe_get y (oy + Array.unsafe_get d (p + 2)) in
                let vx = Array.unsafe_get x (ox + Array.unsafe_get d (p + 1)) in
                Array.unsafe_set c (oc + Array.unsafe_get d p) (vx +. (vy *. vz))
              done
            end
            else general rt
        | Copy, [| (db, rd); (sb, rs) |] ->
          fun rt ->
            let ints = rt.ints in
            if in_range ints 0 then begin
              rt.stmts <- rt.stmts + count;
              let dst = Array.unsafe_get rt.bufs db
              and src = Array.unsafe_get rt.bufs sb in
              let od = nest_base ints rd and os = nest_base ints rs in
              for j = 0 to len - 1 do
                let p = 2 * j in
                Array.unsafe_set dst
                  (od + Array.unsafe_get d p)
                  (Array.unsafe_get src (os + Array.unsafe_get d (p + 1)))
              done
            end
            else general rt
        | Fill, [| (db, rd) |] ->
          let fills = n.fills in
          fun rt ->
            let ints = rt.ints in
            if in_range ints 0 then begin
              rt.stmts <- rt.stmts + count;
              let dst = Array.unsafe_get rt.bufs db in
              let od = nest_base ints rd in
              for j = 0 to len - 1 do
                Array.unsafe_set dst (od + Array.unsafe_get d j) (Array.unsafe_get fills j)
              done
            end
            else general rt
        | _ -> assert false (* [Launch.nest]'s role counts *)))

(* ------------------------------------------------------------------ *)
(* Lane nests                                                         *)
(* ------------------------------------------------------------------ *)

(* A larger nest keeps its ordinary code: this bounds a nest's rows. *)
let max_lanes = 256

(* The static type of an expression a lane nest takes. [T_dyn] is a
   [Select] of an int and a float, which [Expr.eval] types by the branch
   taken: only a parent that reads it as a float may take it. *)
type lty = T_int | T_float | T_bool | T_dyn

(* The nest's elements: their number and, per loop variable (innermost
   binding first), its value in each element. *)
type lanes = { e : int; coords : (int * int array) list }

let is_lane ln (v : Var.t) = List.mem_assoc v.Var.id ln.coords

(* Indices, guards and conditions: the hoisting set's int operators, int
   comparisons, [&&], [||] and [!] over constants, [threadIdx],
   [blockIdx] and int or bool variables, none of which can raise. Raises
   [Exit] on anything else. *)
let rec pure_ty venv ln (e : Expr.t) =
  match e with
  | Expr.Int _ | Thread_idx | Block_idx -> T_int
  | Bool _ -> T_bool
  | Var v when is_lane ln v -> T_int
  | Var v -> (
    match Int_map.find_opt v.Var.id venv with
    | Some (S_int _) -> T_int
    | Some (S_bool _) -> T_bool
    | _ -> raise Exit)
  | Binop ((Add | Sub | Mul | Min | Max), a, b) ->
    pure_is T_int venv ln a;
    pure_is T_int venv ln b;
    T_int
  | Binop ((Div | Mod), a, Int d) when d <> 0 ->
    pure_is T_int venv ln a;
    T_int
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne), a, b) ->
    pure_is T_int venv ln a;
    pure_is T_int venv ln b;
    T_bool
  | Binop ((And | Or), a, b) ->
    pure_is T_bool venv ln a;
    pure_is T_bool venv ln b;
    T_bool
  | Unop ((Neg | Abs), a) ->
    pure_is T_int venv ln a;
    T_int
  | Unop (Not, a) ->
    pure_is T_bool venv ln a;
    T_bool
  | _ -> raise Exit

and pure_is t venv ln e = if pure_ty venv ln e <> t then raise Exit

let pure_int venv ln e =
  pure_is T_int venv ln e;
  T_int

(* The stored value: constants, variables, loads at pure indices of any
   buffer but [stored], arithmetic, float functions and [Select]s on pure
   conditions, typed as [Expr.eval] types them; [T_dyn] only where a
   float is read. Raises [Exit] on anything else. *)
let rec value_ty st venv ln stored (e : Expr.t) =
  match e with
  | Expr.Float _ -> T_float
  | Var v when not (is_lane ln v) -> (
    match Int_map.find_opt v.Var.id venv with
    | Some (S_float _) -> T_float
    | _ -> pure_int venv ln e)
  | Load (b, idx) ->
    if
      b.Buffer.id = stored
      || List.length idx <> Buffer.rank b
      || not (Hashtbl.mem st.buf_slot b.Buffer.id)
    then raise Exit;
    List.iter (pure_is T_int venv ln) idx;
    T_float
  | Binop ((Add | Sub | Mul | Div | Mod | Min | Max), a, b) -> (
    match (value_ty st venv ln stored a, value_ty st venv ln stored b) with
    | T_int, T_int -> pure_int venv ln e
    | T_float, _ | _, T_float -> T_float
    | _ -> raise Exit)
  | Unop ((Neg | Abs), a) -> (
    match value_ty st venv ln stored a with
    | T_int -> pure_int venv ln e
    | T_float -> T_float
    | _ -> raise Exit)
  | Unop ((Exp | Log | Sqrt | Tanh | Erf), a) ->
    ignore (value_ty st venv ln stored a);
    T_float
  | Select (c, a, b) -> (
    if pure_ty venv ln c <> T_bool then raise Exit;
    match (value_ty st venv ln stored a, value_ty st venv ln stored b) with
    | T_int, T_int -> T_int
    | T_float, T_float -> T_float
    | _ -> T_dyn)
  | _ -> pure_int venv ln e

(* A compiled operand: a cell of the lane rows holding a scalar (one
   value for every element) or a row (one value per element), with the
   values when the compiler knows them. *)
type lop = { cell : int; row : bool; known : int array option }

let[@inline] stride o = if o.row then 1 else 0

(* An access: the flat offset of its scalar indices, checked once, plus
   its row indices, checked in each lane that takes it. A lane out of
   bounds raises [Lane_miss]. *)
type lacc = {
  dst : int;
  buf : int;
  kidx : int array;  (** scalar index cells, their extents and strides *)
  kdim : int array;
  kstr : int array;
  ridx : int array;  (** row index cells, likewise *)
  rdim : int array;
  rstr : int array;
  mask : int;  (** the lanes that take it (a bool cell), or [-1]: all *)
  msr : int;
}

(* The row program, one instruction per subexpression. Int instructions
   also serve bools (0 or 1) and masks. The generic binary forms [L_ibin]
   and [L_fbin] read each operand at its stride and take every operator.
   The int special forms, (dst, a, b) over two rows or with [_k] a row
   and a scalar [b], hoist the operator and the scalar out of the element
   loop. They, [L_range] and the multiply-shift [L_div] and [L_mod] are
   the forms whose removal alone slowed the tiny models' closure launches
   by 1% or more (median of nine runs of alternating launches of one
   build); without them all, the launches took ~25% longer. *)
type lins =
  | L_islots of int array * int array  (** cells <- int frame slots *)
  | L_igets of int array * (rt -> int) array
  | L_fslot of int * int
  | L_fget of int * (rt -> float)
  | L_add_k of int * int * int
  | L_sub_k of int * int * int
  | L_lt_k of int * int * int
  | L_and of int * int * int
  | L_and_k of int * int * int
  | L_ibin of Expr.binop * int * int * int * int * int
  | L_div of int * int * int * int * int
      (** [Div] by a non-zero constant [d]: dst, a, d, and for a positive
          [d] a multiplier and shift ([magic]) *)
  | L_mod of int * int * int * int * int
  | L_range of int * int * int * int  (** [lo <= a && a < hi]: dst, a, lo, hi *)
  | L_iun of Expr.unop * int * int * int  (** [Neg], [Abs] or [Not]: dst, a, sa *)
  | L_isel of int * int * int * int * int * int * int  (** dst, c, sc, a, sa, b, sb *)
  | L_itof of int * int * int  (** dst, a, a's stride *)
  | L_fbin of Expr.binop * int * int * int * int * int
  | L_fun of (float -> float) * int * int * int * int * int
      (** dst, a, sa, and the mask: only the lanes that take it call [f] *)
  | L_fsel of int * int * int * int * int * int * int
  | L_load of lacc  (** float row: the taken lanes' values, 0 elsewhere *)
  | L_addr of lacc  (** int row: the taken lanes' flat offsets *)

(* Division of [0 <= x < magic_range] by a constant [d > 0] as
   [(x * m) lsr sh], with [sh = 30 + ceil (log2 d)] and
   [m = ceil (2^sh / d)]: the product stays below [2^62], and the error
   [x * (m * d - 2^sh) / (d * 2^sh) < 1 / d] leaves the quotient exact.
   [m = 0] keeps [/]. *)
let magic_range = 1 lsl 30

let magic d =
  if d <= 0 || d > 1 lsl 31 then (0, 0)
  else
    let rec bits k = if 1 lsl k >= d then k else bits (k + 1) in
    let sh = 30 + bits 0 in
    (((1 lsl sh) + d - 1) / d, sh)

let int_ins (op : Expr.binop) (x : lop) (y : lop) d =
  let a = x.cell and b = y.cell in
  match (op, x.row, y.row) with
  | Add, true, false -> L_add_k (d, a, b)
  | Add, false, true -> L_add_k (d, b, a)
  | Sub, true, false -> L_sub_k (d, a, b)
  | Lt, true, false -> L_lt_k (d, a, b)
  | And, true, true -> L_and (d, a, b)
  | And, true, false -> L_and_k (d, a, b)
  | And, false, true -> L_and_k (d, b, a)
  | (Div | Mod), true, _ ->
    (* by a non-zero constant ([pure_ty]) *)
    let k = (Option.get y.known).(0) in
    let m, sh = magic k in
    if op = Div then L_div (d, a, k, m, sh) else L_mod (d, a, k, m, sh)
  | _ -> L_ibin (op, d, a, stride x, b, stride y)

(* Float operands keep the reference's order, [x op y]. *)
let float_ins (op : Expr.binop) (x : lop) (y : lop) d =
  L_fbin (op, d, x.cell, stride x, y.cell, stride y)

exception Lane_miss

(* The flat offset of an access's scalar indices, or [-1] when one is out
   of bounds: then no lane may take the access. *)
let lane_base li l =
  let off = ref 0 in
  for p = 0 to Array.length l.kidx - 1 do
    let i = Array.unsafe_get li (Array.unsafe_get l.kidx p) in
    if !off >= 0 then
      if i < 0 || i >= Array.unsafe_get l.kdim p then off := -1
      else off := !off + (i * Array.unsafe_get l.kstr p)
  done;
  !off

(* A taken lane's flat offset. *)
let[@inline] lane_off li l base j =
  if base < 0 then raise_notrace Lane_miss;
  let off = ref base in
  for p = 0 to Array.length l.ridx - 1 do
    let i = Array.unsafe_get li (Array.unsafe_get l.ridx p + j) in
    if i < 0 || i >= Array.unsafe_get l.rdim p then raise_notrace Lane_miss;
    off := !off + (i * Array.unsafe_get l.rstr p)
  done;
  !off

let[@inline] taken li l j = l.mask < 0 || Array.unsafe_get li (l.mask + (j * l.msr)) <> 0
let[@inline] b2i b = if b then 1 else 0

(* Inlined, so that a row's float stays unboxed: a float function called
   through a closure boxes its result. *)
let[@inline] ffold (op : Expr.binop) (x : float) y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Mod -> Float.rem x y
  | Min -> Float.min x y
  | Max -> Float.max x y
  | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> assert false (* pure *)

let ifold (op : Expr.binop) x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> x / y
  | Mod -> x mod y
  | Min -> if x <= y then x else y
  | Max -> if x >= y then x else y
  | Lt -> b2i (x < y)
  | Le -> b2i (x <= y)
  | Gt -> b2i (x > y)
  | Ge -> b2i (x >= y)
  | Eq -> b2i (x = y)
  | Ne -> b2i (x <> y)
  | And -> x land y
  | Or -> x lor y

(* Each instruction is one loop over the [e] elements. *)
let run_lanes rt e (prog : lins array) =
  let li = rt.li and lf = rt.lf in
  for pc = 0 to Array.length prog - 1 do
    match Array.unsafe_get prog pc with
    | L_islots (cs, ss) ->
      for k = 0 to Array.length cs - 1 do
        Array.unsafe_set li (Array.unsafe_get cs k) (Array.unsafe_get rt.ints (Array.unsafe_get ss k))
      done
    | L_igets (cs, fs) ->
      for k = 0 to Array.length cs - 1 do
        Array.unsafe_set li (Array.unsafe_get cs k) ((Array.unsafe_get fs k) rt)
      done
    | L_fslot (c, s) -> Array.unsafe_set lf c (Array.unsafe_get rt.floats s)
    | L_fget (c, f) -> Array.unsafe_set lf c (f rt)
    | L_add_k (d, a, b) ->
      let y = Array.unsafe_get li b in
      for j = 0 to e - 1 do
        Array.unsafe_set li (d + j) (Array.unsafe_get li (a + j) + y)
      done
    | L_sub_k (d, a, b) ->
      let y = Array.unsafe_get li b in
      for j = 0 to e - 1 do
        Array.unsafe_set li (d + j) (Array.unsafe_get li (a + j) - y)
      done
    | L_lt_k (d, a, b) ->
      let y = Array.unsafe_get li b in
      for j = 0 to e - 1 do
        Array.unsafe_set li (d + j) (b2i (Array.unsafe_get li (a + j) < y))
      done
    | L_and (d, a, b) ->
      for j = 0 to e - 1 do
        Array.unsafe_set li (d + j)
          (Array.unsafe_get li (a + j) land Array.unsafe_get li (b + j))
      done
    | L_and_k (d, a, b) ->
      let y = Array.unsafe_get li b in
      for j = 0 to e - 1 do
        Array.unsafe_set li (d + j) (Array.unsafe_get li (a + j) land y)
      done
    | L_ibin (op, d, a, sa, b, sb) ->
      for j = 0 to e - 1 do
        Array.unsafe_set li (d + j)
          (ifold op (Array.unsafe_get li (a + (j * sa))) (Array.unsafe_get li (b + (j * sb))))
      done
    | L_div (d, a, dv, m, sh) ->
      for j = 0 to e - 1 do
        let x = Array.unsafe_get li (a + j) in
        Array.unsafe_set li (d + j)
          (if m > 0 && x >= 0 && x < magic_range then (x * m) lsr sh else x / dv)
      done
    | L_mod (d, a, dv, m, sh) ->
      for j = 0 to e - 1 do
        let x = Array.unsafe_get li (a + j) in
        Array.unsafe_set li (d + j)
          (if m > 0 && x >= 0 && x < magic_range then x - (((x * m) lsr sh) * dv)
           else x mod dv)
      done
    | L_range (d, a, lo, hi) ->
      let lo = Array.unsafe_get li lo and hi = Array.unsafe_get li hi in
      for j = 0 to e - 1 do
        let x = Array.unsafe_get li (a + j) in
        Array.unsafe_set li (d + j) (b2i (x >= lo && x < hi))
      done
    | L_iun (op, d, a, sa) ->
      for j = 0 to e - 1 do
        let x = Array.unsafe_get li (a + (j * sa)) in
        Array.unsafe_set li (d + j)
          (match op with Neg -> -x | Abs -> Stdlib.abs x | _ -> 1 - x)
      done
    | L_isel (d, c, sc, a, sa, b, sb) ->
      for j = 0 to e - 1 do
        Array.unsafe_set li (d + j)
          (if Array.unsafe_get li (c + (j * sc)) <> 0 then Array.unsafe_get li (a + (j * sa))
           else Array.unsafe_get li (b + (j * sb)))
      done
    | L_itof (d, a, sa) ->
      for j = 0 to e - 1 do
        Array.unsafe_set lf (d + j) (float_of_int (Array.unsafe_get li (a + (j * sa))))
      done
    | L_fbin (op, d, a, sa, b, sb) ->
      for j = 0 to e - 1 do
        Array.unsafe_set lf (d + j)
          (ffold op (Array.unsafe_get lf (a + (j * sa))) (Array.unsafe_get lf (b + (j * sb))))
      done
    | L_fun (f, d, a, sa, m, ms) ->
      for j = 0 to e - 1 do
        Array.unsafe_set lf (d + j)
          (if m < 0 || Array.unsafe_get li (m + (j * ms)) <> 0 then
             f (Array.unsafe_get lf (a + (j * sa)))
           else 0.)
      done
    | L_fsel (d, c, sc, a, sa, b, sb) ->
      for j = 0 to e - 1 do
        Array.unsafe_set lf (d + j)
          (if Array.unsafe_get li (c + (j * sc)) <> 0 then Array.unsafe_get lf (a + (j * sa))
           else Array.unsafe_get lf (b + (j * sb)))
      done
    | L_load l ->
      let arr = Array.unsafe_get rt.bufs l.buf and base = lane_base li l in
      for j = 0 to e - 1 do
        Array.unsafe_set lf (l.dst + j)
          (if taken li l j then Array.unsafe_get arr (lane_off li l base j) else 0.)
      done
    | L_addr l ->
      let base = lane_base li l in
      for j = 0 to e - 1 do
        if taken li l j then Array.unsafe_set li (l.dst + j) (lane_off li l base j)
      done
  done

(* The nest's store. [addr] computes the stored element of each lane the
   guard lets through; [value] is the stored value, or for a reduction
   [b\[i\] = b\[i\] + x] the [x] folded into [b\[i\]] in element order. *)
type lstore = {
  addr : lacc;
  value : int;
  vsr : int;
  guard : int;  (** [-1]: no guard *)
  gsr : int;
  reduce : bool;
  aliases : int array;  (** the loaded parameter slots *)
  count : int;  (** statements when every guard fails *)
}

let lane_finish rt e (s : lstore) =
  let li = rt.li and lf = rt.lf in
  let dst = Array.unsafe_get rt.bufs s.addr.buf in
  let a = s.addr.dst and v = s.value and vsr = s.vsr in
  let g = s.guard and gsr = s.gsr in
  let n = ref s.count in
  if s.reduce then begin
    let off = ref (-1) and acc = ref 0. in
    for j = 0 to e - 1 do
      if g < 0 || Array.unsafe_get li (g + (j * gsr)) <> 0 then begin
        if !off < 0 then begin
          off := Array.unsafe_get li (a + j);
          acc := Array.unsafe_get dst !off
        end;
        acc := !acc +. Array.unsafe_get lf (v + (j * vsr));
        if g >= 0 then incr n
      end
    done;
    if !off >= 0 then Array.unsafe_set dst !off !acc
  end
  else if g < 0 then
    for j = 0 to e - 1 do
      Array.unsafe_set dst (Array.unsafe_get li (a + j)) (Array.unsafe_get lf (v + (j * vsr)))
    done
  else
    for j = 0 to e - 1 do
      if Array.unsafe_get li (g + (j * gsr)) <> 0 then begin
        Array.unsafe_set dst (Array.unsafe_get li (a + j)) (Array.unsafe_get lf (v + (j * vsr)));
        incr n
      end
    done;
  rt.stmts <- rt.stmts + !n

(* Whether a loaded parameter's array is the stored one's. *)
let rec aliased bufs slot aliases i =
  i < Array.length aliases
  && (Array.unsafe_get bufs (Array.unsafe_get aliases i) == Array.unsafe_get bufs slot
     || aliased bufs slot aliases (i + 1))

(* The perfect nest a statement heads: its loops (variable, extent),
   outermost first, the guard of an [If] without [else] around the store,
   and the store. Raises [Exit] otherwise. *)
let rec lane_shape (s : Stmt.t) =
  match s with
  | Stmt.For { var; extent = Int n; body; _ } when n > 0 ->
    let loops, guard, store = lane_shape body in
    ((var, n) :: loops, guard, store)
  | Seq [ s ] -> lane_shape s
  | If { cond; then_; else_ = None } -> (
    match lane_shape then_ with
    | [], None, store -> ([], Some cond, store)
    | _ -> raise Exit)
  | Store { buf; indices; value } -> ([], None, (buf, indices, value))
  | _ -> raise Exit

(* The elements of a nest's loops, [max_lanes + 1] past it. *)
let lane_count loops =
  List.fold_left
    (fun e (_, n) -> if n > max_lanes || e * n > max_lanes then max_lanes + 1 else e * n)
    1 loops

(* No loop variable of the nest and no load. *)
let rec lane_free ln (e : Expr.t) =
  match e with
  | Expr.Var v -> not (is_lane ln v)
  | Load _ -> false
  | Int _ | Float _ | Bool _ | Thread_idx | Block_idx -> true
  | Unop (_, a) -> lane_free ln a
  | Binop (_, a, b) -> lane_free ln a && lane_free ln b
  | Select (c, a, b) -> lane_free ln c && lane_free ln a && lane_free ln b

(* [+0.] once read as a float. *)
let is_zero (e : Expr.t) =
  match e with
  | Expr.Int 0 -> true
  | Float f -> Int64.bits_of_float f = 0L
  | _ -> false

(* A load, or a [Select] whose false branch is [+0.] and whose true branch
   is again one: compiled under the conditions, its row is the load's,
   which a taken lane reads and every other lane holds as [+0.]. *)
let rec zero_select (e : Expr.t) =
  match e with
  | Expr.Load _ -> true
  | Select (_, a, b) -> is_zero b && zero_select a
  | _ -> false

(* The flat strides of a buffer. *)
let strides_of (buf : Buffer.t) =
  let dims = Array.of_list buf.Buffer.dims in
  let s = Array.make (Array.length dims) 1 in
  for p = Array.length dims - 2 downto 0 do
    s.(p) <- s.(p + 1) * dims.(p + 1)
  done;
  (dims, s)

(* [x] when the indices delinearize it: [x / s0], then [(x / sp) % dp],
   then [x % dn], over the buffer's strides [s] and extents [d]. Each
   index is then in bounds when [0 <= x < size], and the flat offset is
   [x]; the other [x] keep the ordinary code. *)
let delinear (buf : Buffer.t) idx =
  let dims, strides = strides_of buf in
  let r = Array.length dims in
  match idx with
  | Expr.Binop (Div, x, Int s) :: rest when r >= 2 && s = strides.(0) ->
    let ok p (i : Expr.t) =
      match i with
      | Binop (Mod, Binop (Div, y, Int s), Int d) ->
        s = strides.(p) && d = dims.(p) && Expr.equal x y
      | Binop (Mod, y, Int d) -> p = r - 1 && d = dims.(p) && Expr.equal x y
      | _ -> false
    in
    if List.for_all Fun.id (List.mapi (fun p i -> ok (p + 1) i) rest) then
      Some (x, Array.fold_left ( * ) 1 dims)
    else None
  | _ -> None

(* Memo keys: equal instructions over equal operands share a row. *)
type lkey =
  | K_op of Expr.binop * int * bool * int * bool
  | K_un of Expr.unop * int * bool
  | K_fun of Expr.unop * int * bool * int
  | K_sel of int * bool * int * bool * int * bool
  | K_itof of int * bool
  | K_load of int * int list * int * bool
  | K_range of int * int * int

(* One nest's compilation: its rows, instructions (newest first) and
   memos. *)
type lb = {
  ln : lanes;
  mutable prog : lins list;
  imemo : (lkey, lop) Hashtbl.t;
  fmemo : (lkey, lop) Hashtbl.t;
  slots : (int, lop) Hashtbl.t;
  mutable globals : int list;
  mutable copies : (int * int) list;  (** int scalars: cell, frame slot *)
  mutable gets : (int * (rt -> int)) list;  (** and cell, closure *)
}

(* A compiled value: an int or bool, or a float; [L_free] when it has no
   loop variable and no load, so that [comp] computes it once as a scalar
   ([scalar]) where a parent needs it. *)
type lval = L_free | L_i of lop | L_f of lop

let icells st n =
  let c = st.n_li in
  st.n_li <- c + n;
  c

let fcells st n =
  let c = st.n_lf in
  st.n_lf <- c + n;
  c

let emit b i = b.prog <- i :: b.prog

(* Known int values: a constant scalar, or a row when they differ. *)
let iconst st (vals : int array) =
  let vals = if Array.for_all (( = ) vals.(0)) vals then [| vals.(0) |] else vals in
  let cell =
    match Hashtbl.find_opt st.lconsts vals with
    | Some c -> c
    | None ->
      let c = icells st (Array.length vals) in
      Hashtbl.replace st.lconsts vals c;
      c
  in
  { cell; row = Array.length vals > 1; known = Some vals }

let memo st b tbl cells key mk =
  match Hashtbl.find_opt tbl key with
  | Some o -> o
  | None ->
    let d = cells st b.ln.e in
    emit b (mk d);
    let o = { cell = d; row = true; known = None } in
    Hashtbl.replace tbl key o;
    o

let ibin st b op x y =
  match (x.known, y.known) with
  | Some kx, Some ky ->
    let at k j = if Array.length k = 1 then k.(0) else k.(j) in
    iconst st
      (Array.init (if x.row || y.row then b.ln.e else 1) (fun j ->
           ifold op (at kx j) (at ky j)))
  | _ -> memo st b b.imemo icells (K_op (op, x.cell, x.row, y.cell, y.row)) (int_ins op x y)

let iun st b op x =
  match x.known with
  | Some k ->
    iconst st
      (Array.map (fun v -> match op with Expr.Neg -> -v | Abs -> Stdlib.abs v | _ -> 1 - v) k)
  | None -> memo st b b.imemo icells (K_un (op, x.cell, x.row)) (fun d -> L_iun (op, d, x.cell, stride x))

(* A scalar computed once at nest entry by the ordinary compiler. *)
let iscalar st b (o : iop) =
  match o with
  | K n -> iconst st [| n |]
  | S s -> (
    match Hashtbl.find_opt b.slots s with
    | Some o -> o
    | None ->
      let c = icells st 1 in
      b.copies <- (c, s) :: b.copies;
      let o = { cell = c; row = false; known = None } in
      Hashtbl.replace b.slots s o;
      o)
  | F f ->
    let c = icells st 1 in
    b.gets <- (c, f) :: b.gets;
    { cell = c; row = false; known = None }

let fscalar st b (o : fop) =
  let c = fcells st 1 in
  (match o with
  | Fk x -> st.lf_init <- (c, x) :: st.lf_init
  | Fs s -> emit b (L_fslot (c, s))
  | Fa _ | Ff _ -> emit b (L_fget (c, fun rt -> frd o rt)));
  { cell = c; row = false; known = None }

let as_fl st b = function
  | L_f o -> o
  | L_free -> assert false (* forced *)
  | L_i { cell; row; known = Some [| k |] } when not row ->
    ignore cell;
    fscalar st b (Fk (float_of_int k))
  | L_i o -> memo st b b.fmemo fcells (K_itof (o.cell, o.row)) (fun d -> L_itof (d, o.cell, stride o))

let as_li = function L_i o -> o | L_f _ | L_free -> assert false (* typed, forced *)

let scalar st venv b (e : Expr.t) =
  match comp st venv e with
  | C_int o -> L_i (iscalar st b o)
  | C_bool f -> L_i (iscalar st b (F (fun rt -> b2i (f rt))))
  | (C_float _ | C_dyn _) as x -> L_f (fscalar st b (as_float x))

(* The lanes a mask and a condition both let through. *)
let mask_and st b mask c = match mask with None -> c | Some m -> ibin st b And m c

(* Compile an expression [value_ty] or [pure_ty] accepted. [mask] holds
   the lanes whose [Select] path reaches it, built when a load first reads
   under it: a load reads only there. *)
let rec lval st venv b mask (e : Expr.t) =
  let go = lval st venv b in
  match e with
  | Expr.Int _ | Float _ | Bool _ | Thread_idx | Block_idx -> L_free
  | Var v -> (
    match List.assoc_opt v.Var.id b.ln.coords with
    | Some c -> L_i (iconst st c)
    | None -> L_free)
  | Load (buf, idx) ->
    let slot = Hashtbl.find st.buf_slot buf.Buffer.id in
    if slot < st.n_globals && not (List.mem slot b.globals) then
      b.globals <- slot :: b.globals;
    let l, cells = lane_access st venv b mask buf idx 0 in
    let key = K_load (slot, cells, l.mask, l.msr = 1) in
    L_f (memo st b b.fmemo fcells key (fun dst -> L_load { l with dst }))
  | Binop (op, x, y) -> (
    let range =
      (* [lo <= x && x < hi] over a row: one instruction *)
      match e with
      | Binop (And, Binop (Ge, x, lo), Binop (Lt, x', hi)) when Expr.equal x x' -> (
        match (go mask x, go mask lo, go mask hi) with
        | L_i ({ row = true; _ } as x), L_free, L_free ->
          let lo = as_li (scalar st venv b lo) and hi = as_li (scalar st venv b hi) in
          Some
            (L_i
               (memo st b b.imemo icells (K_range (x.cell, lo.cell, hi.cell)) (fun d ->
                    L_range (d, x.cell, lo.cell, hi.cell))))
        | _ -> None)
      | _ -> None
    in
    match range with
    | Some r -> r
    | None -> (
      match (go mask x, go mask y) with
      | L_free, L_free -> L_free
      | lx, ly -> (
        match (force st venv b x lx, force st venv b y ly) with
        | L_i x, L_i y -> L_i (ibin st b op x y)
        | lx, ly ->
          let x = as_fl st b lx in
          let y = as_fl st b ly in
          L_f
            (memo st b b.fmemo fcells (K_op (op, x.cell, x.row, y.cell, y.row))
               (float_ins op x y)))))
  | Unop (op, x) -> (
    match (op, go mask x) with
    | _, L_free -> L_free
    | (Neg | Abs | Not), L_i x -> L_i (iun st b op x)
    | _, lx ->
      let x = as_fl st b lx in
      let f =
        match op with
        | Neg -> Float.neg
        | Abs -> Float.abs
        | Exp -> Stdlib.exp
        | Log -> Stdlib.log
        | Sqrt -> Stdlib.sqrt
        | Tanh -> Stdlib.tanh
        | Erf | Not -> Expr.erf
      in
      let m, ms = match Lazy.force mask with None -> (-1, 0) | Some m -> (m.cell, stride m) in
      L_f
        (memo st b b.fmemo fcells (K_fun (op, x.cell, x.row, m)) (fun d ->
             L_fun (f, d, x.cell, stride x, m, ms))))
  | Select (c, x, y) -> (
    let lc = go mask c in
    let fc = lazy (as_li (force st venv b c lc)) in
    let under m = lazy (Some (mask_and st b (Lazy.force mask) (m ()))) in
    let mx = under (fun () -> Lazy.force fc) in
    if is_zero y && zero_select x then go mx x
    else
      let lx = go mx x in
      let ly = go (under (fun () -> iun st b Not (Lazy.force fc))) y in
      match (lc, lx, ly) with
      | L_free, L_free, L_free -> L_free
      | _ -> (
        let c = Lazy.force fc in
        let key x y = K_sel (c.cell, c.row, x.cell, x.row, y.cell, y.row) in
        match (force st venv b x lx, force st venv b y ly) with
        | L_i x, L_i y ->
          L_i
            (memo st b b.imemo icells (key x y) (fun d ->
                 L_isel (d, c.cell, stride c, x.cell, stride x, y.cell, stride y)))
        | lx, ly ->
          let x = as_fl st b lx in
          let y = as_fl st b ly in
          L_f
            (memo st b b.fmemo fcells (key x y) (fun d ->
                 L_fsel (d, c.cell, stride c, x.cell, stride x, y.cell, stride y)))))

(* A compiled operand of [e], computing a free one as a scalar. *)
and force st venv b e = function L_free -> scalar st venv b e | v -> v

(* An access at [idx] of [buf] taken by the lanes of [mask], into the
   int or float cells at [dst], and its index cells in order. *)
and lane_access st venv b mask (buf : Buffer.t) idx dst =
  let slot = Hashtbl.find st.buf_slot buf.Buffer.id in
  let dims, strides, idx =
    match delinear buf idx with
    | Some (x, size) -> ([| size |], [| 1 |], [ x ])
    | None ->
      let dims, strides = strides_of buf in
      (dims, strides, idx)
  in
  let ix = List.map (fun i -> as_li (force st venv b i (lval st venv b mask i))) idx in
  let pick row f =
    Array.of_list
      (List.concat (List.mapi (fun p (o : lop) -> if o.row = row then [ f p o ] else []) ix))
  in
  let m, msr = match Lazy.force mask with None -> (-1, 0) | Some m -> (m.cell, stride m) in
  ( {
    dst;
    buf = slot;
    kidx = pick false (fun _ o -> o.cell);
    kdim = pick false (fun p _ -> dims.(p));
    kstr = pick false (fun p _ -> strides.(p));
    ridx = pick true (fun _ o -> o.cell);
    rdim = pick true (fun p _ -> dims.(p));
    rstr = pick true (fun p _ -> strides.(p));
    mask = m;
    msr;
  },
    List.map (fun o -> o.cell) ix )

(* A lane nest as the reference runs it, with the frame's variables: a
   nest runs this when a check fails, so the error it raises is [Interp]'s,
   at [Interp]'s statement, with the earlier stores done. *)
let lane_reference buf_slot venv (s : Stmt.t) rt =
  let lookup (v : Var.t) =
    match Int_map.find_opt v.Var.id venv with
    | Some (S_int s) -> Expr.V_int rt.ints.(s)
    | Some (S_float s) -> V_float rt.floats.(s)
    | Some (S_bool s) -> V_bool rt.bools.(s)
    | Some (S_dyn s) -> rt.vals.(s)
    | None -> assert false (* [value_ty] and [pure_ty] *)
  in
  let locate (b : Buffer.t) = rt.bufs.(Hashtbl.find buf_slot b.Buffer.id) in
  rt.stmts <-
    rt.stmts
    + Interp.exec ~thread_idx:rt.ints.(tid_slot) ~block_idx:rt.ints.(bid_slot) ~lookup
        ~locate s

(* A lane nest ({!lane_shape}) as one closure, or [None]. It evaluates
   every subexpression once, as a row over the elements or a scalar;
   checks every taken index, then stores in element order. A failed
   check, or a stored parameter array that a load also reads, runs
   [lane_reference] instead: nothing is stored before. *)
let lane_nest st venv (s : Stmt.t) =
  match lane_shape s with
  | exception Exit -> None
  | loops, _, _ when lane_count loops > max_lanes -> None
  | loops, guard, (buf, indices, value) -> (
    let e = lane_count loops in
    let reduction =
      match value with
      | Expr.Binop (Add, Load (b', i'), x)
        when b'.Buffer.id = buf.Buffer.id
             && List.length i' = List.length indices
             && List.for_all2 Expr.equal i' indices ->
        Some x
      | _ -> None
    in
    let coords =
      (* each loop variable's value in each element, innermost first *)
      fst
        (List.fold_left
           (fun (acc, k) ((v : Var.t), n) ->
             ((v.Var.id, Array.init e (fun j -> j / k mod n)) :: acc, k * n))
           ([], 1) (List.rev loops))
      |> List.rev
    in
    let ln = { e; coords } in
    let typed () =
      List.iter (fun i -> if pure_ty venv ln i <> T_int then raise Exit) indices;
      Option.iter (fun g -> if pure_ty venv ln g <> T_bool then raise Exit) guard;
      match reduction with
      | Some x ->
        if not (List.for_all (lane_free ln) indices) then raise Exit;
        ignore (value_ty st venv ln buf.Buffer.id x)
      | None -> ignore (value_ty st venv ln buf.Buffer.id value)
    in
    let ok =
      Hashtbl.mem st.buf_slot buf.Buffer.id
      && List.length indices = Buffer.rank buf
      && match typed () with () -> true | exception Exit -> false
    in
    if not ok then None
    else begin
      st.lane_nests <- st.lane_nests + 1;
      let b =
        {
          ln;
          prog = [];
          imemo = Hashtbl.create 16;
          fmemo = Hashtbl.create 16;
          slots = Hashtbl.create 8;
          globals = [];
          copies = [];
          gets = [];
        }
      in
      let compiled mask e = force st venv b e (lval st venv b mask e) in
      let gd = Option.map (fun g -> as_li (compiled (lazy None) g)) guard in
      let v = as_fl st b (compiled (lazy gd) (Option.value reduction ~default:value)) in
      let addr, _ = lane_access st venv b (lazy gd) buf indices (icells st e) in
      emit b (L_addr addr);
      let slot = addr.buf in
      let store =
        {
          addr;
          value = v.cell;
          vsr = stride v;
          guard = (match gd with None -> -1 | Some g -> g.cell);
          gsr = (match gd with None -> 0 | Some g -> stride g);
          reduce = reduction <> None;
          aliases = (if slot < st.n_globals then Array.of_list b.globals else [||]);
          count = List.fold_right (fun (_, n) c -> 1 + (n * c)) loops 1;
        }
      in
      (* The int scalars first, in two instructions: they read only the
         frame, which the nest does not write. *)
      let batch l mk = if l = [] then [] else [ mk (List.split (List.rev l)) ] in
      let prog =
        Array.of_list
          (batch b.copies (fun (cs, ss) -> L_islots (Array.of_list cs, Array.of_list ss))
          @ batch b.gets (fun (cs, fs) -> L_igets (Array.of_list cs, Array.of_list fs))
          @ List.rev b.prog)
      in
      let reference = lane_reference st.buf_slot venv s in
      Some
        (fun rt ->
          if aliased rt.bufs slot store.aliases 0 then reference rt
          else
            match run_lanes rt e prog with
            | () -> lane_finish rt e store
            | exception Lane_miss -> reference rt)
    end)

(* Run closures in order. *)
let seq_closures = function
  | [] -> noop
  | [ a ] -> a
  | [ a; b ] ->
    fun rt ->
      a rt;
      b rt
  | [ a; b; c ] ->
    fun rt ->
      a rt;
      b rt;
      c rt
  | cs ->
    let arr = Array.of_list cs in
    let n = Array.length arr in
    fun rt ->
      for i = 0 to n - 1 do
        arr.(i) rt
      done

let rec comp_stmt st venv (s : Stmt.t) : rt -> unit =
  match s with
  | Stmt.Seq ss -> seq_closures (List.map (comp_stmt st venv) ss)
  | For { var; extent; body; unroll } -> (
    (* A register-tile nest runs whole or not at all: its ordinary code,
       and an [unroll] loop that is no nest, holds no nest of its own. *)
    let general () =
      let nesting = st.nesting in
      if unroll then st.nesting <- false;
      let g = comp_for st venv var extent body in
      st.nesting <- nesting;
      g
    in
    let nested =
      if not st.nesting then None
      else
        match nest st venv s general with
        | Some _ as n -> n
        | None -> lane_nest st venv s
    in
    match nested with Some nest -> nest | None -> general ())
  | If { cond; then_; else_ } ->
    let cc = as_bool (comp st venv cond) in
    let ct = comp_stmt st venv then_ in
    let ce = match else_ with Some e -> comp_stmt st venv e | None -> noop in
    fun rt ->
      rt.stmts <- rt.stmts + 1;
      if cc rt then ct rt else ce rt
  | Let { var; value; body } -> (
    match comp st venv value with
    | C_int (S v) ->
      (* An invariant value already has a slot, set before this statement
         and unchanged within it: the variable shares it, and its scope. *)
      let cbody = comp_stmt st (Int_map.add var.Var.id (S_int v) venv) body in
      fun rt ->
        rt.stmts <- rt.stmts + 1;
        cbody rt
    | C_int o ->
      let s0 = push_int st in
      enter_scope st s0;
      let cbody = comp_stmt st (Int_map.add var.Var.id (S_int s0) venv) body in
      let cbody = with_init (leave_scope st) cbody in
      st.next_int <- st.next_int - 1;
      fun rt ->
        rt.stmts <- rt.stmts + 1;
        Array.unsafe_set rt.ints s0 (rd o rt);
        cbody rt
    | C_float o ->
      let s0 = push_float st in
      let cbody =
        comp_stmt st (Int_map.add var.Var.id (S_float s0) venv) body
      in
      st.next_float <- st.next_float - 1;
      fun rt ->
        rt.stmts <- rt.stmts + 1;
        Array.unsafe_set rt.floats s0 (frd o rt);
        cbody rt
    | C_bool f ->
      let s0 = push_bool st in
      let cbody = comp_stmt st (Int_map.add var.Var.id (S_bool s0) venv) body in
      st.next_bool <- st.next_bool - 1;
      fun rt ->
        rt.stmts <- rt.stmts + 1;
        rt.bools.(s0) <- f rt;
        cbody rt
    | C_dyn f ->
      let s0 = push_dyn st in
      let cbody = comp_stmt st (Int_map.add var.Var.id (S_dyn s0) venv) body in
      st.next_dyn <- st.next_dyn - 1;
      fun rt ->
        rt.stmts <- rt.stmts + 1;
        rt.vals.(s0) <- f rt;
        cbody rt)
  | Store { buf; indices; value } -> comp_store st venv buf indices value
  | Mma m -> comp_mma st venv m
  | Sync_threads -> assert false (* [compile]: phased, or the reference's *)
  | Comment _ -> fun rt -> rt.stmts <- rt.stmts + 1

and comp_for st venv var extent body =
  let cext = as_int (comp st venv extent) in
  let s0 = push_int st in
  enter_scope st s0;
  let cbody = comp_stmt st (Int_map.add var.Var.id (S_int s0) venv) body in
  let init = Option.value (leave_scope st) ~default:noop in
  st.next_int <- st.next_int - 1;
  fun rt ->
    rt.stmts <- rt.stmts + 1;
    let n = rd cext rt in
    let ints = rt.ints in
    for i = 0 to n - 1 do
      ints.(s0) <- i;
      init rt;
      cbody rt
    done

(* ------------------------------------------------------------------ *)
(* Phased kernels                                                     *)
(* ------------------------------------------------------------------ *)

(* A phased block at run time: the current barrier interval over the
   threads' frames, the block index, the values of the block-uniform [Let]
   and [For] variables and the iteration that the first segment of a loop
   body starts. *)
type blk = {
  iv : rt Exec_registry.interval;
  mutable bid : int;
  uv : Expr.value array;
  mutable cur : int;
}

(* A block-uniform expression, evaluated by [Expr.eval] once per block: it
   cannot raise, so no thread can tell when it ran. *)
let ueval uenv e b =
  Expr.eval
    {
      lookup = (fun v -> b.uv.(Int_map.find v.Var.id uenv));
      load = (fun _ _ -> invalid_arg "Compile_exec.ueval: not block-uniform");
      thread_idx = 0;
      block_idx = b.bid;
    }
    e

(* The per-thread code reached since the block last pushed a segment, in
   reverse order. [lead], at the head of a loop body, sets the loop
   variable to the segment's argument and runs the iteration's hoisted
   inits. *)
type pending = {
  mutable lead : (rt -> int -> unit) option;
  mutable codes : (rt -> unit) list;
}

let count1 rt = rt.stmts <- rt.stmts + 1

(* Block actions are accumulated in reverse in [acts]. *)
let materialize acts p =
  let seg =
    match (p.lead, p.codes) with
    | None, [] -> None
    | Some l, [] -> Some l
    | None, codes ->
      let c = seq_closures (List.rev codes) in
      Some (fun rt _ -> c rt)
    | Some l, codes ->
      let c = seq_closures (List.rev codes) in
      Some
        (fun rt i ->
          l rt i;
          c rt)
  in
  p.lead <- None;
  p.codes <- [];
  Option.iter
    (fun seg -> acts := (fun b -> Exec_registry.push b.iv seg b.cur) :: !acts)
    seg

let run_acts acts =
  match List.rev acts with
  | [] -> fun _ -> ()
  | [ a ] -> a
  | acts ->
    let arr = Array.of_list acts in
    fun b -> Array.iter (fun a -> a b) arr

(* Compile a statement of a phased kernel into block actions. Code without
   a barrier joins the pending per-thread code. A barrier ends the
   interval: the pending code, with the barrier's count, is pushed and the
   interval flushed. [Let], [For] and [If] add their count (and a [Let]
   its binding) to the pending code; a uniform [For] or [If] then pushes
   it and decides at block level, once per block, what runs next. So
   every thread runs its own statements in program order, and between two
   barriers thread [t] runs all of them before thread [t + 1]: the
   reference's fiber schedule. *)
let rec phased st uniform next_uv venv uenv acts p (s : Stmt.t) =
  let ph = phased st uniform next_uv in
  if not (Launch.has_sync s) then p.codes <- comp_stmt st venv s :: p.codes
  else
    match s with
    | Stmt.Sync_threads ->
      p.codes <- count1 :: p.codes;
      materialize acts p;
      acts := (fun b -> Exec_registry.flush b.iv) :: !acts
    | Seq ss -> List.iter (ph venv uenv acts p) ss
    | Let { var; value; body } -> (
      let uenv =
        if uniform var then begin
          let us = !next_uv in
          incr next_uv;
          acts := (fun b -> b.uv.(us) <- ueval uenv value b) :: !acts;
          Int_map.add var.Var.id us uenv
        end
        else uenv
      in
      let bind set slot =
        p.codes <- set :: p.codes;
        ph (Int_map.add var.Var.id slot venv) uenv acts p body
      in
      match comp st venv value with
      | C_int (S v) -> bind count1 (S_int v)
      | C_int o ->
        let s0 = push_int st in
        enter_scope st s0;
        let init = ref noop in
        bind
          (fun rt ->
            rt.stmts <- rt.stmts + 1;
            Array.unsafe_set rt.ints s0 (rd o rt);
            !init rt)
          (S_int s0);
        Option.iter (fun f -> init := f) (leave_scope st);
        st.next_int <- st.next_int - 1
      | C_float o ->
        let s0 = push_float st in
        bind
          (fun rt ->
            rt.stmts <- rt.stmts + 1;
            Array.unsafe_set rt.floats s0 (frd o rt))
          (S_float s0);
        st.next_float <- st.next_float - 1
      | C_bool f ->
        let s0 = push_bool st in
        bind
          (fun rt ->
            rt.stmts <- rt.stmts + 1;
            rt.bools.(s0) <- f rt)
          (S_bool s0);
        st.next_bool <- st.next_bool - 1
      | C_dyn f ->
        let s0 = push_dyn st in
        bind
          (fun rt ->
            rt.stmts <- rt.stmts + 1;
            rt.vals.(s0) <- f rt)
          (S_dyn s0);
        st.next_dyn <- st.next_dyn - 1)
    | For { var; extent; body; _ } ->
      p.codes <- count1 :: p.codes;
      materialize acts p;
      let s0 = push_int st in
      enter_scope st s0;
      let us = !next_uv in
      incr next_uv;
      let init = ref noop in
      let bacts = ref [] in
      let bp =
        {
          lead =
            Some
              (fun rt i ->
                Array.unsafe_set rt.ints s0 i;
                !init rt);
          codes = [];
        }
      in
      ph
        (Int_map.add var.Var.id (S_int s0) venv)
        (Int_map.add var.Var.id us uenv)
        bacts bp body;
      materialize bacts bp;
      Option.iter (fun f -> init := f) (leave_scope st);
      st.next_int <- st.next_int - 1;
      let run_body = run_acts !bacts in
      acts :=
        (fun b ->
          let n = Expr.int_of_value (ueval uenv extent b) in
          for i = 0 to n - 1 do
            b.uv.(us) <- Expr.V_int i;
            b.cur <- i;
            run_body b
          done)
        :: !acts
    | If { cond; then_; else_ } ->
      p.codes <- count1 :: p.codes;
      materialize acts p;
      let branch s =
        let bacts = ref [] and bp = { lead = None; codes = [] } in
        ph venv uenv bacts bp s;
        materialize bacts bp;
        run_acts !bacts
      in
      let t = branch then_ in
      let e = match else_ with Some e -> branch e | None -> fun _ -> () in
      acts :=
        (fun b -> if Expr.bool_of_value (ueval uenv cond b) then t b else e b)
        :: !acts
    | Store _ | Mma _ | Comment _ -> assert false (* no barrier *)

(* ------------------------------------------------------------------ *)
(* Kernel compilation                                                 *)
(* ------------------------------------------------------------------ *)

let m_compile_us = Metrics.counter "sim.compile_us"
let m_nests = Metrics.counter "sim.compile.nests"
let m_fma_nests = Metrics.counter "sim.compile.fma_nests"
let m_hoisted = Metrics.counter "sim.compile.hoisted"
let m_lane_nests = Metrics.counter "sim.compile.lane_nests"

(* The deepest nesting of [For]/[Let] binders: the binder stack never grows
   past it, so hoisted slots start above. *)
let rec binder_depth (s : Stmt.t) =
  match s with
  | Stmt.Seq ss -> List.fold_left (fun d s -> max d (binder_depth s)) 0 ss
  | For { body; _ } | Let { body; _ } -> 1 + binder_depth body
  | If { then_; else_; _ } ->
    max (binder_depth then_) (Option.fold ~none:0 ~some:binder_depth else_)
  | Store _ | Mma _ | Sync_threads | Comment _ -> 0

(* [uniform]: the kernel's [Launch.phased]. *)
let compile_code (k : Kernel.t) uniform : Launch.t =
  let t0 = Unix.gettimeofday () in
  let res =
    Trace.span
      ~attrs:(fun () -> [ ("kernel", k.Kernel.name) ])
      "sim.compile"
      (fun _ ->
        let slots = Launch.slots k in
        let depth = binder_depth k.body in
        let hoist_base = pinned_ints + depth in
        let slot_depth = Hashtbl.create 64 in
        Hashtbl.replace slot_depth tid_slot 0;
        Hashtbl.replace slot_depth bid_slot 0;
        let st =
          {
            buf_slot = slots.Launch.slot_of;
            next_int = pinned_ints;
            next_float = 0;
            max_float = 0;
            next_bool = 0;
            max_bool = 0;
            next_dyn = 0;
            max_dyn = 0;
            scopes = Array.init (depth + 1) (fun _ -> new_scope ());
            depth = 0;
            slot_depth;
            next_hoist = hoist_base;
            nesting = true;
            nests = 0;
            fma_nests = 0;
            n_globals = List.length k.params;
            lane_nests = 0;
            n_li = 0;
            n_lf = 0;
            lconsts = Hashtbl.create 16;
            lf_init = [];
          }
        in
        let code =
          match uniform with
          | None ->
            let body = comp_stmt st Int_map.empty k.body in
            Either.Left (with_init (leave_scope st) body)
          | Some uniform ->
            let next_uv = ref 0 and init = ref noop and acts = ref [] in
            let p = { lead = None; codes = [ (fun rt -> !init rt) ] } in
            phased st uniform next_uv Int_map.empty Int_map.empty acts p k.body;
            materialize acts p;
            acts := (fun b -> Exec_registry.flush b.iv) :: !acts;
            Option.iter (fun f -> init := f) (leave_scope st);
            Either.Right (run_acts !acts, !next_uv)
        in
        Metrics.add m_nests st.nests;
        Metrics.add m_fma_nests st.fma_nests;
        Metrics.add m_lane_nests st.lane_nests;
        Metrics.add m_hoisted (st.next_hoist - hoist_base);
        let n_ints = st.next_hoist
        and n_floats = max 1 st.max_float
        and n_bools = max 1 st.max_bool
        and n_dyns = max 1 st.max_dyn
        and n_li = max 1 st.n_li
        and n_lf = max 1 st.n_lf
        and iconsts = Hashtbl.fold (fun vals c l -> (c, vals) :: l) st.lconsts []
        and fconsts = st.lf_init in
        (* Frames are built when a launch binds the code to its thread
           storage, and reused: a thread starts with its pinned slots set and
           its count at 0, and writes every other slot, row and cell before
           reading it. The lane rows, whose constant cells are set here, are
           shared by the frames of a block: no nest spans a barrier. *)
        let lanes () =
          let li = Array.make n_li 0 and lf = Array.make n_lf 0. in
          List.iter (fun (c, vals) -> Array.blit vals 0 li c (Array.length vals)) iconsts;
          List.iter (fun (c, x) -> lf.(c) <- x) fconsts;
          (li, lf)
        in
        let frame (li, lf) bufs =
          {
            bufs;
            ints = Array.make n_ints 0;
            floats = Array.make n_floats 0.;
            bools = Array.make n_bools false;
            vals = Array.make n_dyns (Expr.V_int 0);
            li;
            lf;
            stmts = 0;
          }
        in
        let start rt tid bid =
          Array.unsafe_set rt.ints tid_slot tid;
          Array.unsafe_set rt.ints bid_slot bid;
          rt.stmts <- 0
        in
        let body =
          match code with
          | Either.Left body ->
            Launch.Thread
              (fun bufs ->
                let rt = frame (lanes ()) bufs in
                fun tid bid ->
                  start rt tid bid;
                  body rt;
                  rt.stmts)
          | Right (run, n_uv) ->
            Launch.Block
              (fun tbufs ->
                let rts = Array.map (frame (lanes ())) tbufs in
                let b =
                  {
                    iv = Exec_registry.interval rts;
                    bid = 0;
                    uv = Array.make n_uv (Expr.V_int 0);
                    cur = 0;
                  }
                in
                fun bid ->
                  Array.iteri (fun tid rt -> start rt tid bid) rts;
                  b.bid <- bid;
                  b.cur <- 0;
                  run b;
                  Array.fold_left (fun n rt -> n + rt.stmts) 0 rts)
        in
        Launch.make k slots body)
  in
  Metrics.add m_compile_us
    (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  res

let compile (k : Kernel.t) =
  Verify.kernel_exn k;
  match Launch.phased k with
  | None when Launch.has_sync k.body -> Launch.reference k
  | uniform -> compile_code k uniform
