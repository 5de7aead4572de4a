module Expr = Hidet_ir.Expr
module Tensor = Hidet_tensor.Tensor

type scalar =
  | Const of float
  | Const_int of int
  | Axis of int
  | Raxis of int
  | Input of int * scalar list
  | Bin of Expr.binop * scalar * scalar
  | Un of Expr.unop * scalar
  | Sel of scalar * scalar * scalar

type reduce_kind = Sum | Max_reduce

type t = {
  name : string;
  in_shapes : int list list;
  out_shape : int list;
  body : scalar;
  reduce : (int list * reduce_kind) option;
  bijection : (Expr.t list -> Expr.t list) option;
}

let create ?reduce ?bijection ~name ~in_shapes ~out_shape body =
  if out_shape = [] then invalid_arg "Def.create: empty output shape";
  { name; in_shapes; out_shape; body; reduce; bijection }

let is_injective d = d.reduce = None

let is_bijective d =
  is_injective d && d.bijection <> None
  && match d.in_shapes with
     | s :: _ -> List.fold_left ( * ) 1 s = List.fold_left ( * ) 1 d.out_shape
     | [] -> false

let ( + ) a b = Bin (Expr.Add, a, b)
let ( - ) a b = Bin (Expr.Sub, a, b)
let ( * ) a b = Bin (Expr.Mul, a, b)
let ( / ) a b = Bin (Expr.Div, a, b)
let maxs a b = Bin (Expr.Max, a, b)
let sel c a b = Sel (c, a, b)
let lts a b = Bin (Expr.Lt, a, b)
let ges a b = Bin (Expr.Ge, a, b)
let ands a b = Bin (Expr.And, a, b)
let input k idx = Input (k, idx)
let axis i = Axis i
let raxis i = Raxis i
let const f = Const f
let iconst n = Const_int n

let num_out_elems d = List.fold_left Stdlib.( * ) 1 d.out_shape

(* --- structural validation ------------------------------------------------ *)

let well_formed d =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error (d.name ^ ": " ^ s)) fmt in
  let rank = List.length d.out_shape in
  let rrank =
    match d.reduce with None -> 0 | Some (ext, _) -> List.length ext
  in
  let* () =
    if List.for_all (fun x -> x > 0) d.out_shape then Ok ()
    else err "non-positive output dimension"
  in
  let* () =
    if List.for_all (List.for_all (fun x -> x > 0)) d.in_shapes then Ok ()
    else err "non-positive input dimension"
  in
  let* () =
    match d.reduce with
    | Some (ext, _) when not (List.for_all (fun x -> x > 0) ext) ->
      err "non-positive reduction extent"
    | _ -> Ok ()
  in
  let n_inputs = List.length d.in_shapes in
  let rec check s =
    match s with
    | Const _ | Const_int _ -> Ok ()
    | Axis i ->
      if i >= 0 && i < rank then Ok ()
      else err "axis i%d out of range (rank %d)" i rank
    | Raxis i ->
      if i >= 0 && i < rrank then Ok ()
      else err "reduction axis r%d out of range (%d reduction axes)" i rrank
    | Input (k, idx) ->
      if k < 0 || k >= n_inputs then err "input %d out of range (%d inputs)" k n_inputs
      else
        let arity = List.length (List.nth d.in_shapes k) in
        if List.length idx <> arity then
          err "input %d indexed with %d indices, rank is %d" k (List.length idx) arity
        else check_all idx
    | Bin (_, a, b) ->
      let* () = check a in
      check b
    | Un (_, a) -> check a
    | Sel (c, a, b) ->
      let* () = check c in
      let* () = check a in
      check b
  and check_all = function
    | [] -> Ok ()
    | s :: rest ->
      let* () = check s in
      check_all rest
  in
  check d.body

(* --- reference evaluation ------------------------------------------------- *)

(* Whether [s] lowers to integer IR arithmetic: axes, integer literals and
   arithmetic or selections on them (comparisons count as 0/1). A float
   input or literal makes a division a float division even where its
   value happens to be integral, as [Expr.eval] does on a float operand. *)
let rec is_int = function
  | Const_int _ | Axis _ | Raxis _ -> true
  | Const _ | Input _ -> false
  | Bin ((Lt | Le | Gt | Ge | Eq | Ne | And | Or), _, _) | Un (Not, _) -> true
  | Bin ((Add | Sub | Mul | Div | Mod | Min | Max), a, b) | Sel (_, a, b) ->
    is_int a && is_int b
  | Un ((Neg | Abs), a) -> is_int a
  | Un ((Exp | Log | Sqrt | Tanh | Erf), _) -> false

let rec eval_scalar ~inputs ~axes ~raxes s : float =
  match s with
  | Const f -> f
  | Const_int n -> float_of_int n
  | Axis i -> float_of_int (List.nth axes i)
  | Raxis i -> float_of_int (List.nth raxes i)
  | Input (k, idx) ->
    let idx = List.map (fun e -> int_of_float (eval_scalar ~inputs ~axes ~raxes e)) idx in
    Tensor.get (List.nth inputs k) idx
  | Bin (op, a, b) ->
    let va = eval_scalar ~inputs ~axes ~raxes a in
    let vb = eval_scalar ~inputs ~axes ~raxes b in
    (match op with
    | Expr.Add -> va +. vb
    | Sub -> va -. vb
    | Mul -> va *. vb
    | Div ->
      (* Index arithmetic travels through this float-valued evaluator;
         integer operands use truncating integer division as the IR does. *)
      if vb <> 0. && is_int a && is_int b then
        float_of_int (Stdlib.( / ) (int_of_float va) (int_of_float vb))
      else va /. vb
    | Mod ->
      if vb <> 0. && is_int a && is_int b then
        float_of_int (int_of_float va mod int_of_float vb)
      else Float.rem va vb
    | Min -> Float.min va vb
    | Max -> Float.max va vb
    | Lt -> if va < vb then 1. else 0.
    | Le -> if va <= vb then 1. else 0.
    | Gt -> if va > vb then 1. else 0.
    | Ge -> if va >= vb then 1. else 0.
    | Eq -> if va = vb then 1. else 0.
    | Ne -> if va <> vb then 1. else 0.
    | And -> if va <> 0. && vb <> 0. then 1. else 0.
    | Or -> if va <> 0. || vb <> 0. then 1. else 0.)
  | Sel (c, a, b) ->
    if eval_scalar ~inputs ~axes ~raxes c <> 0. then
      eval_scalar ~inputs ~axes ~raxes a
    else eval_scalar ~inputs ~axes ~raxes b
  | Un (op, a) -> (
    let v = eval_scalar ~inputs ~axes ~raxes a in
    match op with
    | Expr.Neg -> -.v
    | Not -> if v = 0. then 1. else 0.
    | Exp -> exp v
    | Log -> log v
    | Sqrt -> sqrt v
    | Tanh -> tanh v
    | Abs -> Float.abs v
    | Erf ->
      Expr.float_of_value
        (Expr.eval
           {
             Expr.lookup = (fun _ -> Expr.V_float 0.);
             load = (fun _ _ -> Expr.V_float 0.);
             thread_idx = 0;
             block_idx = 0;
           }
           (Expr.Unop (Expr.Erf, Expr.Float v))))

let rec enumerate shape =
  match shape with
  | [] -> [ [] ]
  | d :: rest ->
    let tails = enumerate rest in
    List.concat (List.init d (fun i -> List.map (fun tl -> i :: tl) tails))

let eval d inputs =
  if List.length inputs <> List.length d.in_shapes then
    invalid_arg (Printf.sprintf "Def.eval %s: input count mismatch" d.name);
  List.iter2
    (fun t s ->
      if Tensor.shape t <> s then
        invalid_arg (Printf.sprintf "Def.eval %s: input shape mismatch" d.name))
    inputs d.in_shapes;
  Tensor.init d.out_shape (fun axes ->
      match d.reduce with
      | None -> eval_scalar ~inputs ~axes ~raxes:[] d.body
      | Some (extents, kind) ->
        let init_v = match kind with Sum -> 0. | Max_reduce -> neg_infinity in
        let combine = match kind with Sum -> Stdlib.( +. ) | Max_reduce -> Float.max in
        List.fold_left
          (fun acc raxes -> combine acc (eval_scalar ~inputs ~axes ~raxes d.body))
          init_v (enumerate extents))

(* --- lowering ------------------------------------------------------------- *)

let rec scalar_to_expr ~inputs ~axes ~raxes s : Expr.t =
  match s with
  | Const f -> Expr.float f
  | Const_int n -> Expr.int n
  | Axis i -> List.nth axes i
  | Raxis i -> List.nth raxes i
  | Input (k, idx) -> inputs k (List.map (scalar_to_expr ~inputs ~axes ~raxes) idx)
  | Bin (op, a, b) ->
    Expr.binop op
      (scalar_to_expr ~inputs ~axes ~raxes a)
      (scalar_to_expr ~inputs ~axes ~raxes b)
  | Un (op, a) -> Expr.unop op (scalar_to_expr ~inputs ~axes ~raxes a)
  | Sel (c, a, b) ->
    (* Comparison/logical Bins lower to boolean expressions directly; any
       other condition is compared against zero. *)
    let cond =
      match c with
      | Bin ((Expr.Lt | Le | Gt | Ge | Eq | Ne | And | Or), _, _) ->
        scalar_to_expr ~inputs ~axes ~raxes c
      | _ -> Expr.ne (scalar_to_expr ~inputs ~axes ~raxes c) (Expr.int 0)
    in
    Expr.select cond
      (scalar_to_expr ~inputs ~axes ~raxes a)
      (scalar_to_expr ~inputs ~axes ~raxes b)

let rec pp_scalar fmt = function
  | Const f -> Format.fprintf fmt "%g" f
  | Const_int n -> Format.fprintf fmt "%d" n
  | Axis i -> Format.fprintf fmt "i%d" i
  | Raxis i -> Format.fprintf fmt "r%d" i
  | Input (k, idx) ->
    Format.fprintf fmt "in%d[%a]" k
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_scalar)
      idx
  | Bin (op, a, b) ->
    Format.fprintf fmt "(%a %s %a)" pp_scalar a
      (match op with
      | Expr.Add -> "+"
      | Sub -> "-"
      | Mul -> "*"
      | Div -> "/"
      | Mod -> "%"
      | Min -> "min"
      | Max -> "max"
      | _ -> "?")
      pp_scalar b
  | Un (_, a) -> Format.fprintf fmt "f(%a)" pp_scalar a
  | Sel (c, a, b) ->
    Format.fprintf fmt "(%a ? %a : %a)" pp_scalar c pp_scalar a pp_scalar b

let pp fmt d =
  Format.fprintf fmt "%s: out[%s] = %s%a" d.name
    (String.concat ", " (List.map string_of_int d.out_shape))
    (match d.reduce with
    | None -> ""
    | Some (ext, Sum) ->
      Printf.sprintf "sum_{%s} " (String.concat "," (List.map string_of_int ext))
    | Some (ext, Max_reduce) ->
      Printf.sprintf "max_{%s} " (String.concat "," (List.map string_of_int ext)))
    pp_scalar d.body
