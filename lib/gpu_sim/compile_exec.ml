open Hidet_ir
module Metrics = Hidet_obs.Metrics
module Trace = Hidet_obs.Trace
module Int_map = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* Runtime state                                                      *)
(* ------------------------------------------------------------------ *)

(* Everything mutable lives here, one record per simulated thread, so the
   compiled closures themselves are immutable and safe to share across the
   domains running different blocks. *)
type rt = {
  bufs : float array array;  (** buffer slot -> backing storage *)
  ints : int array;  (** int frame: the pinned slots below, then variables *)
  floats : float array;
  bools : bool array;
  vals : Expr.value array;  (** boxed fallback frame (rare) *)
  mutable stmts : int;  (** statements executed by this thread *)
}

(* Pinned int-frame slots, written once when a thread's frame is built:
   [threadIdx] and [blockIdx] are then ordinary slot operands, and the zero
   slot pads an access with fewer than two slot-indexed dimensions. *)
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
  mutable nesting : bool;  (** [For] tries [nest]: off inside an [unroll] [For] *)
  mutable nests : int;
  mutable fma_nests : int;
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
   interpreter's [List.map eval_int]-then-[flat_index] order. Ranks 1-4
   get dedicated closures with no per-call allocation. *)
let comp_flat_read (buf : Buffer.t) (cidx : iop array) slot : rt -> float =
  let name = buf.Buffer.name in
  let dims = Array.of_list buf.Buffer.dims in
  if Array.length cidx <> Array.length dims then fun rt ->
    Array.iter (fun c -> ignore (rd c rt)) cidx;
    invalid_access (Printf.sprintf "Buffer.flat_index: rank mismatch on %s" name)
  else
    match dims with
    | [| d0 |] ->
      let c0 = cidx.(0) in
      fun rt ->
        let i0 = rd c0 rt in
        if i0 < 0 || i0 >= d0 then oob i0 d0 name;
        Array.unsafe_get rt.bufs.(slot) i0
    | [| d0; d1 |] ->
      let c0 = cidx.(0) and c1 = cidx.(1) in
      fun rt ->
        let i0 = rd c0 rt in
        let i1 = rd c1 rt in
        if i0 < 0 || i0 >= d0 then oob i0 d0 name;
        if i1 < 0 || i1 >= d1 then oob i1 d1 name;
        Array.unsafe_get rt.bufs.(slot) ((i0 * d1) + i1)
    | [| d0; d1; d2 |] ->
      let c0 = cidx.(0) and c1 = cidx.(1) and c2 = cidx.(2) in
      fun rt ->
        let i0 = rd c0 rt in
        let i1 = rd c1 rt in
        let i2 = rd c2 rt in
        if i0 < 0 || i0 >= d0 then oob i0 d0 name;
        if i1 < 0 || i1 >= d1 then oob i1 d1 name;
        if i2 < 0 || i2 >= d2 then oob i2 d2 name;
        Array.unsafe_get rt.bufs.(slot) ((((i0 * d1) + i1) * d2) + i2)
    | [| d0; d1; d2; d3 |] ->
      let c0 = cidx.(0) and c1 = cidx.(1) and c2 = cidx.(2) and c3 = cidx.(3) in
      fun rt ->
        let i0 = rd c0 rt in
        let i1 = rd c1 rt in
        let i2 = rd c2 rt in
        let i3 = rd c3 rt in
        if i0 < 0 || i0 >= d0 then oob i0 d0 name;
        if i1 < 0 || i1 >= d1 then oob i1 d1 name;
        if i2 < 0 || i2 >= d2 then oob i2 d2 name;
        if i3 < 0 || i3 >= d3 then oob i3 d3 name;
        Array.unsafe_get rt.bufs.(slot)
          ((((((i0 * d1) + i1) * d2) + i2) * d3) + i3)
    | _ ->
      let n = Array.length dims in
      fun rt ->
        let idx = Array.make n 0 in
        for p = 0 to n - 1 do
          idx.(p) <- rd cidx.(p) rt
        done;
        let acc = ref 0 in
        for p = 0 to n - 1 do
          let i = idx.(p) and d = dims.(p) in
          if i < 0 || i >= d then oob i d name;
          acc := (!acc * d) + i
        done;
        rt.bufs.(slot).(!acc)

(* Int arithmetic gets one closure per operator and operand forms, so the
   closure never dispatches on a form at run time (a shared dispatch point
   is a poorly predicted branch). Forms with no case of their own read
   through [rd]. The right operand is read first, as OCaml evaluates
   [f a + f b], so a pair of failing operands raises what it always did. *)
let add a b =
  match (a, b) with
  | S x, K n -> F (fun rt -> sl rt x + n)
  | F f, K n -> F (fun rt -> f rt + n)
  | S x, S y -> F (fun rt -> sl rt x + sl rt y)
  | S x, F g -> F (fun rt -> let y = g rt in sl rt x + y)
  | F f, S y -> F (fun rt -> f rt + sl rt y)
  | F f, F g -> F (fun rt -> let y = g rt in f rt + y)
  | _ -> F (fun rt -> let y = rd b rt in rd a rt + y)

let sub a b =
  match (a, b) with
  | S x, K n -> F (fun rt -> sl rt x - n)
  | F f, K n -> F (fun rt -> f rt - n)
  | S x, S y -> F (fun rt -> sl rt x - sl rt y)
  | S x, F g -> F (fun rt -> let y = g rt in sl rt x - y)
  | F f, S y -> F (fun rt -> f rt - sl rt y)
  | F f, F g -> F (fun rt -> let y = g rt in f rt - y)
  | _ -> F (fun rt -> let y = rd b rt in rd a rt - y)

let mul a b =
  match (a, b) with
  | S x, K n -> F (fun rt -> sl rt x * n)
  | F f, K n -> F (fun rt -> f rt * n)
  | S x, S y -> F (fun rt -> sl rt x * sl rt y)
  | S x, F g -> F (fun rt -> let y = g rt in sl rt x * y)
  | F f, S y -> F (fun rt -> f rt * sl rt y)
  | F f, F g -> F (fun rt -> let y = g rt in f rt * y)
  | _ -> F (fun rt -> let y = rd b rt in rd a rt * y)

let pow2 d = d > 0 && d land (d - 1) = 0

let log2 d =
  let rec go k = if 1 lsl k = d then k else go (k + 1) in
  go 0

(* By a positive power-of-two constant, a non-negative dividend shifts or
   masks: the same value as [/] and [mod] there. *)
let div a b =
  match (a, b) with
  | S x, K d when pow2 d ->
    let k = log2 d in
    F (fun rt -> let v = sl rt x in if v >= 0 then v asr k else v / d)
  | F f, K d when pow2 d ->
    let k = log2 d in
    F (fun rt -> let v = f rt in if v >= 0 then v asr k else v / d)
  | S x, K d -> F (fun rt -> sl rt x / d)
  | F f, K d -> F (fun rt -> f rt / d)
  | _ -> F (fun rt -> let y = rd b rt in rd a rt / y)

let rem a b =
  match (a, b) with
  | S x, K d when pow2 d ->
    let m = d - 1 in
    F (fun rt -> let v = sl rt x in if v >= 0 then v land m else v mod d)
  | F f, K d when pow2 d ->
    let m = d - 1 in
    F (fun rt -> let v = f rt in if v >= 0 then v land m else v mod d)
  | S x, K d -> F (fun rt -> sl rt x mod d)
  | F f, K d -> F (fun rt -> f rt mod d)
  | _ -> F (fun rt -> let y = rd b rt in rd a rt mod y)

let int_binop op a b : cexpr =
  match op with
  | Expr.Add -> C_int (add a b)
  | Sub -> C_int (sub a b)
  | Mul -> C_int (mul a b)
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
   point. A slot-indexed store has no index to evaluate. When its value is
   the register FMA [c + a * b] over slot-indexed loads, as
   [Matmul_template] emits it, the whole statement is one closure with no
   boxed intermediate, reading [b], then [a], then [c]: the order OCaml
   evaluates [c +. (a *. b)] in. *)
let comp_store st venv (buf : Buffer.t) indices value : rt -> unit =
  let cidx =
    Array.of_list (List.map (fun i -> as_int (comp st venv i)) indices)
  in
  let fma =
    match value with
    | Expr.Binop (Add, x, Binop (Mul, y, z)) -> (
      match (comp st venv x, comp st venv y, comp st venv z) with
      | C_float (Fa x), C_float (Fa y), C_float (Fa z) -> Some (x, y, z)
      | _ -> None)
    | _ -> None
  in
  let cv = as_float (comp st venv value) in
  let name = buf.Buffer.name in
  let dims = Array.of_list buf.Buffer.dims in
  let generic_fail fail rt =
    rt.stmts <- rt.stmts + 1;
    Array.iter (fun c -> ignore (rd c rt)) cidx;
    ignore (frd cv rt);
    fail ()
  in
  match Hashtbl.find_opt st.buf_slot buf.Buffer.id with
  | None -> generic_fail (fun () -> not_allocated buf)
  | Some slot -> (
    match (access buf slot cidx, fma, cv) with
    | Some a, Some (x, y, z), _ ->
      fun rt ->
        rt.stmts <- rt.stmts + 1;
        let bufs = rt.bufs in
        let vz = Array.unsafe_get (Array.unsafe_get bufs z.buf) (addr z rt) in
        let vy = Array.unsafe_get (Array.unsafe_get bufs y.buf) (addr y rt) in
        let vx = Array.unsafe_get (Array.unsafe_get bufs x.buf) (addr x rt) in
        let off = addr a rt in
        Array.unsafe_set (Array.unsafe_get bufs a.buf) off (vx +. (vy *. vz))
    | Some a, None, Ff f ->
      fun rt ->
        rt.stmts <- rt.stmts + 1;
        let v = f rt in
        let off = addr a rt in
        Array.unsafe_set (Array.unsafe_get rt.bufs a.buf) off v
    | Some a, _, _ ->
      fun rt ->
        rt.stmts <- rt.stmts + 1;
        let v = frd cv rt in
        let off = addr a rt in
        Array.unsafe_set (Array.unsafe_get rt.bufs a.buf) off v
    | None, _, _ when Array.length cidx <> Array.length dims ->
      generic_fail (fun () ->
          invalid_access
            (Printf.sprintf "Buffer.flat_index: rank mismatch on %s" name))
    | None, _, _ -> (
      match dims with
      | [| d0 |] ->
        let c0 = cidx.(0) in
        fun rt ->
          rt.stmts <- rt.stmts + 1;
          let i0 = rd c0 rt in
          let v = frd cv rt in
          if i0 < 0 || i0 >= d0 then oob i0 d0 name;
          Array.unsafe_set rt.bufs.(slot) i0 v
      | [| d0; d1 |] ->
        let c0 = cidx.(0) and c1 = cidx.(1) in
        fun rt ->
          rt.stmts <- rt.stmts + 1;
          let i0 = rd c0 rt in
          let i1 = rd c1 rt in
          let v = frd cv rt in
          if i0 < 0 || i0 >= d0 then oob i0 d0 name;
          if i1 < 0 || i1 >= d1 then oob i1 d1 name;
          Array.unsafe_set rt.bufs.(slot) ((i0 * d1) + i1) v
      | [| d0; d1; d2 |] ->
        let c0 = cidx.(0) and c1 = cidx.(1) and c2 = cidx.(2) in
        fun rt ->
          rt.stmts <- rt.stmts + 1;
          let i0 = rd c0 rt in
          let i1 = rd c1 rt in
          let i2 = rd c2 rt in
          let v = frd cv rt in
          if i0 < 0 || i0 >= d0 then oob i0 d0 name;
          if i1 < 0 || i1 >= d1 then oob i1 d1 name;
          if i2 < 0 || i2 >= d2 then oob i2 d2 name;
          Array.unsafe_set rt.bufs.(slot) ((((i0 * d1) + i1) * d2) + i2) v
      | [| d0; d1; d2; d3 |] ->
        let c0 = cidx.(0)
        and c1 = cidx.(1)
        and c2 = cidx.(2)
        and c3 = cidx.(3) in
        fun rt ->
          rt.stmts <- rt.stmts + 1;
          let i0 = rd c0 rt in
          let i1 = rd c1 rt in
          let i2 = rd c2 rt in
          let i3 = rd c3 rt in
          let v = frd cv rt in
          if i0 < 0 || i0 >= d0 then oob i0 d0 name;
          if i1 < 0 || i1 >= d1 then oob i1 d1 name;
          if i2 < 0 || i2 >= d2 then oob i2 d2 name;
          if i3 < 0 || i3 >= d3 then oob i3 d3 name;
          Array.unsafe_set rt.bufs.(slot)
            ((((((i0 * d1) + i1) * d2) + i2) * d3) + i3)
            v
      | _ ->
        let n = Array.length dims in
        fun rt ->
          rt.stmts <- rt.stmts + 1;
          let idx = Array.make n 0 in
          for p = 0 to n - 1 do
            idx.(p) <- rd cidx.(p) rt
          done;
          let v = frd cv rt in
          let acc = ref 0 in
          for p = 0 to n - 1 do
            let i = idx.(p) and d = dims.(p) in
            if i < 0 || i >= d then oob i d name;
            acc := (!acc * d) + i
          done;
          rt.bufs.(slot).(!acc) <- v))

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
    (* An [unroll] nest runs whole or not at all: its general path holds
       no nest of its own. *)
    let general () =
      let nesting = st.nesting in
      if unroll then st.nesting <- false;
      let g = comp_for st venv var extent body in
      st.nesting <- nesting;
      g
    in
    match if st.nesting then nest st venv s general else None with
    | Some nest -> nest
    | None -> general ())
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
  | Sync_threads ->
    fun rt ->
      rt.stmts <- rt.stmts + 1;
      Effect.perform Interp.Sync
  | Comment _ -> fun rt -> rt.stmts <- rt.stmts + 1

and comp_for st venv var extent body =
  let cext = as_int (comp st venv extent) in
  let s0 = push_int st in
  enter_scope st s0;
  let cbody = comp_stmt st (Int_map.add var.Var.id (S_int s0) venv) body in
  let init = leave_scope st in
  st.next_int <- st.next_int - 1;
  match init with
  | None ->
    fun rt ->
      rt.stmts <- rt.stmts + 1;
      let n = rd cext rt in
      let ints = rt.ints in
      for i = 0 to n - 1 do
        ints.(s0) <- i;
        cbody rt
      done
  | Some init ->
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
  bid : int;
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
   barriers thread [t] runs all of them before thread [t + 1]: the fiber
   schedule. *)
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

(* The deepest nesting of [For]/[Let] binders: the binder stack never grows
   past it, so hoisted slots start above. *)
let rec binder_depth (s : Stmt.t) =
  match s with
  | Stmt.Seq ss -> List.fold_left (fun d s -> max d (binder_depth s)) 0 ss
  | For { body; _ } | Let { body; _ } -> 1 + binder_depth body
  | If { then_; else_; _ } ->
    max (binder_depth then_) (Option.fold ~none:0 ~some:binder_depth else_)
  | Store _ | Mma _ | Sync_threads | Comment _ -> 0

let compile (k : Kernel.t) : Launch.t =
  Verify.kernel_exn k;
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
          }
        in
        let code =
          match Launch.phased k with
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
        Metrics.add m_hoisted (st.next_hoist - hoist_base);
        let n_ints = st.next_hoist
        and n_floats = max 1 st.max_float
        and n_bools = max 1 st.max_bool
        and n_dyns = max 1 st.max_dyn in
        (* One frame per thread: the closures capture no scratch state. *)
        let frame tid bid bufs =
          let ints = Array.make n_ints 0 in
          ints.(tid_slot) <- tid;
          ints.(bid_slot) <- bid;
          {
            bufs;
            ints;
            floats = Array.make n_floats 0.;
            bools = Array.make n_bools false;
            vals = Array.make n_dyns (Expr.V_int 0);
            stmts = 0;
          }
        in
        let body =
          match code with
          | Either.Left body ->
            Exec_registry.Thread
              (fun tid bid bufs ->
                let rt = frame tid bid bufs in
                body rt;
                rt.stmts)
          | Right (run, n_uv) ->
            Exec_registry.Block
              (fun bid tbufs ->
                let rts = Array.mapi (fun tid bufs -> frame tid bid bufs) tbufs in
                run
                  {
                    iv = Exec_registry.interval rts;
                    bid;
                    uv = Array.make n_uv (Expr.V_int 0);
                    cur = 0;
                  };
                Array.fold_left (fun n rt -> n + rt.stmts) 0 rts)
        in
        Launch.make k slots body)
  in
  Metrics.add m_compile_us
    (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  res
