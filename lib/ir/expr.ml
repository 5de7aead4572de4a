type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Min
  | Max
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

type unop = Neg | Not | Exp | Log | Sqrt | Tanh | Erf | Abs

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Var of Var.t
  | Thread_idx
  | Block_idx
  | Binop of binop * t * t
  | Unop of unop * t
  | Select of t * t * t
  | Load of Buffer.t * t list

type value = V_int of int | V_float of float | V_bool of bool

(* Small constants are shared: index arithmetic is full of them, and a
   compiled plan keeps its kernels' IR alive. *)
let small_ints = Array.init 258 (fun i -> Int (i - 1))
let int n = if n >= -1 && n <= 256 then small_ints.(n + 1) else Int n
let float f = Float f
let bool b = Bool b
let var v = Var v

(* Integer division/modulo with truncation toward zero, matching CUDA C
   semantics for the non-negative indices the IR manipulates. *)
let idiv a b = a / b
let imod a b = a mod b

(* The constructors below take the node being rewritten, [node], and return
   it where no rule folds and it already has exactly these children, so a
   rewrite that changes nothing under a node allocates nothing for it. The
   smart constructors pass [Thread_idx], which has no children. *)
let binop_node node op a b =
  match node with
  | Binop (op', a', b') when op' = op && a' == a && b' == b -> node
  | _ -> Binop (op, a, b)

let unop_node node op a =
  match node with
  | Unop (op', a') when op' = op && a' == a -> node
  | _ -> Unop (op, a)

let add_at node a b =
  match (a, b) with
  | Int x, Int y -> int (x + y)
  | Float x, Float y -> Float (x +. y)
  | Int 0, e | e, Int 0 -> e
  | Float 0., e | e, Float 0. -> e
  | _ -> binop_node node Add a b

let sub_at node a b =
  match (a, b) with
  | Int x, Int y -> int (x - y)
  | Float x, Float y -> Float (x -. y)
  | e, Int 0 -> e
  | e, Float 0. -> e
  | _ -> binop_node node Sub a b

let mul_at node a b =
  match (a, b) with
  | Int x, Int y -> int (x * y)
  | Float x, Float y -> Float (x *. y)
  | Int 0, _ | _, Int 0 -> Int 0
  | Int 1, e | e, Int 1 -> e
  | Float 1., e | e, Float 1. -> e
  | _ -> binop_node node Mul a b

let div_at node a b =
  match (a, b) with
  | Int x, Int y when y <> 0 -> int (idiv x y)
  | Float x, Float y when y <> 0. -> Float (x /. y)
  | e, Int 1 -> e
  | e, Float 1. -> e
  | _ -> binop_node node Div a b

let modulo_at node a b =
  match (a, b) with
  | Int x, Int y when y <> 0 -> int (imod x y)
  | _, Int 1 -> Int 0
  | _ -> binop_node node Mod a b

let min_at node a b =
  match (a, b) with
  | Int x, Int y -> int (min x y)
  | Float x, Float y -> Float (Float.min x y)
  | _ -> binop_node node Min a b

let max_at node a b =
  match (a, b) with
  | Int x, Int y -> int (max x y)
  | Float x, Float y -> Float (Float.max x y)
  | _ -> binop_node node Max a b

let cmp_at node op fi ff a b =
  match (a, b) with
  | Int x, Int y -> Bool (fi x y)
  | Float x, Float y -> Bool (ff x y)
  | _ -> binop_node node op a b

let and_at node a b =
  match (a, b) with
  | Bool true, e | e, Bool true -> e
  | Bool false, _ | _, Bool false -> Bool false
  | _ -> binop_node node And a b

let or_at node a b =
  match (a, b) with
  | Bool false, e | e, Bool false -> e
  | Bool true, _ | _, Bool true -> Bool true
  | _ -> binop_node node Or a b

let not_at node = function
  | Bool b -> Bool (not b)
  | Unop (Not, e) -> e
  | e -> unop_node node Not e

let neg_at node = function
  | Int n -> int (-n)
  | Float f -> Float (-.f)
  | e -> unop_node node Neg e

let rebuild_binop node op a b =
  match op with
  | Add -> add_at node a b
  | Sub -> sub_at node a b
  | Mul -> mul_at node a b
  | Div -> div_at node a b
  | Mod -> modulo_at node a b
  | Min -> min_at node a b
  | Max -> max_at node a b
  | Lt -> cmp_at node Lt ( < ) ( < ) a b
  | Le -> cmp_at node Le ( <= ) ( <= ) a b
  | Gt -> cmp_at node Gt ( > ) ( > ) a b
  | Ge -> cmp_at node Ge ( >= ) ( >= ) a b
  | Eq -> cmp_at node Eq ( = ) ( = ) a b
  | Ne -> cmp_at node Ne ( <> ) ( <> ) a b
  | And -> and_at node a b
  | Or -> or_at node a b

let rebuild_unop node op a =
  match (op, a) with
  | Neg, _ -> neg_at node a
  | Not, _ -> not_at node a
  | Exp, Float f -> Float (Stdlib.exp f)
  | Log, Float f -> Float (Stdlib.log f)
  | Sqrt, Float f -> Float (Stdlib.sqrt f)
  | Tanh, Float f -> Float (Stdlib.tanh f)
  | Abs, Float f -> Float (Float.abs f)
  | Abs, Int n -> int (Stdlib.abs n)
  | (Exp | Log | Sqrt | Tanh | Erf | Abs), _ -> unop_node node op a

let rebuild_select node c a b =
  match c with
  | Bool true -> a
  | Bool false -> b
  | _ -> (
    match node with
    | Select (c', a', b') when c' == c && a' == a && b' == b -> node
    | _ -> Select (c, a, b))

let rec map_list f l =
  match l with
  | [] -> l
  | x :: rest ->
    let x' = f x in
    let rest' = map_list f rest in
    if x' == x && rest' == rest then l else x' :: rest'

let rebuild_load node buf idx =
  match node with
  | Load (buf', idx') when buf' == buf && idx' == idx -> node
  | _ -> Load (buf, idx)

let add a b = add_at Thread_idx a b
let sub a b = sub_at Thread_idx a b
let mul a b = mul_at Thread_idx a b
let div a b = div_at Thread_idx a b
let modulo a b = modulo_at Thread_idx a b
let min_ a b = min_at Thread_idx a b
let max_ a b = max_at Thread_idx a b
let lt a b = cmp_at Thread_idx Lt ( < ) ( < ) a b
let le a b = cmp_at Thread_idx Le ( <= ) ( <= ) a b
let gt a b = cmp_at Thread_idx Gt ( > ) ( > ) a b
let ge a b = cmp_at Thread_idx Ge ( >= ) ( >= ) a b
let eq a b = cmp_at Thread_idx Eq ( = ) ( = ) a b
let ne a b = cmp_at Thread_idx Ne ( <> ) ( <> ) a b
let and_ a b = and_at Thread_idx a b
let or_ a b = or_at Thread_idx a b
let not_ e = not_at Thread_idx e
let neg e = neg_at Thread_idx e
let select c a b = rebuild_select Thread_idx c a b
let binop op a b = rebuild_binop Thread_idx op a b
let unop op a = rebuild_unop Thread_idx op a

let load buf indices =
  if List.length indices <> Buffer.rank buf then
    invalid_arg (Printf.sprintf "Expr.load: rank mismatch on %s" buf.Buffer.name);
  Load (buf, indices)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( % ) = modulo
  let ( < ) = lt
  let ( <= ) = le
  let ( && ) = and_
end

let rec equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Bool x, Bool y -> x = y
  | Var x, Var y -> Var.equal x y
  | Thread_idx, Thread_idx | Block_idx, Block_idx -> true
  | Binop (o1, a1, b1), Binop (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | Unop (o1, a1), Unop (o2, a2) -> o1 = o2 && equal a1 a2
  | Select (c1, a1, b1), Select (c2, a2, b2) ->
    equal c1 c2 && equal a1 a2 && equal b1 b2
  | Load (buf1, idx1), Load (buf2, idx2) ->
    Buffer.equal buf1 buf2
    && List.length idx1 = List.length idx2
    && List.for_all2 equal idx1 idx2
  | ( ( Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx | Binop _
      | Unop _ | Select _ | Load _ ),
      _ ) ->
    false

let rec subst v e body =
  match body with
  | Var v' when Var.equal v v' -> e
  | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> body
  | Binop (op, a, b) -> rebuild_binop body op (subst v e a) (subst v e b)
  | Unop (op, a) -> rebuild_unop body op (subst v e a)
  | Select (c, a, b) ->
    rebuild_select body (subst v e c) (subst v e a) (subst v e b)
  | Load (buf, idx) -> rebuild_load body buf (map_list (subst v e) idx)

let free_vars e =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go = function
    | Var v ->
      if not (Hashtbl.mem seen v.Var.id) then begin
        Hashtbl.add seen v.Var.id ();
        acc := v :: !acc
      end
    | Int _ | Float _ | Bool _ | Thread_idx | Block_idx -> ()
    | Binop (_, a, b) ->
      go a;
      go b
    | Unop (_, a) -> go a
    | Select (c, a, b) ->
      go c;
      go a;
      go b
    | Load (_, idx) -> List.iter go idx
  in
  go e;
  List.rev !acc

let rec map_loads f e =
  match e with
  | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> e
  | Binop (op, a, b) -> rebuild_binop e op (map_loads f a) (map_loads f b)
  | Unop (op, a) -> rebuild_unop e op (map_loads f a)
  | Select (c, a, b) ->
    rebuild_select e (map_loads f c) (map_loads f a) (map_loads f b)
  | Load (buf, idx) -> (
    let idx' = map_list (map_loads f) idx in
    match f buf idx' with Some r -> r | None -> rebuild_load e buf idx')

let const_int = function Int n -> Some n | _ -> None

let rec is_pure_of_thread = function
  | Thread_idx -> true
  | Int _ | Float _ | Bool _ | Var _ | Block_idx -> false
  | Binop (_, a, b) -> is_pure_of_thread a || is_pure_of_thread b
  | Unop (_, a) -> is_pure_of_thread a
  | Select (c, a, b) ->
    is_pure_of_thread c || is_pure_of_thread a || is_pure_of_thread b
  | Load (_, idx) -> List.exists is_pure_of_thread idx

type env = {
  lookup : Var.t -> value;
  load : Buffer.t -> int list -> value;
  thread_idx : int;
  block_idx : int;
}

let float_of_value = function
  | V_float f -> f
  | V_int n -> float_of_int n
  | V_bool b -> if b then 1. else 0.

let int_of_value = function
  | V_int n -> n
  | V_float f -> int_of_float f
  | V_bool b -> if b then 1 else 0

let bool_of_value = function
  | V_bool b -> b
  | V_int n -> n <> 0
  | V_float f -> f <> 0.

let erf x =
  (* Abramowitz & Stegun 7.1.26 approximation; accurate to ~1.5e-7, enough
     for GELU activations in tests and benches. *)
  let sign = if x < 0. then -1. else 1. in
  let x = Float.abs x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let y =
    1.
    -. ((((((1.061405429 *. t) -. 1.453152027) *. t) +. 1.421413741) *. t
        -. 0.284496736)
        *. t
       +. 0.254829592)
       *. t
       *. Stdlib.exp (-.x *. x)
  in
  sign *. y

let rec eval env e =
  match e with
  | Int n -> V_int n
  | Float f -> V_float f
  | Bool b -> V_bool b
  | Var v -> env.lookup v
  | Thread_idx -> V_int env.thread_idx
  | Block_idx -> V_int env.block_idx
  | Select (c, a, b) -> if eval_bool env c then eval env a else eval env b
  | Load (buf, idx) -> env.load buf (List.map (eval_int env) idx)
  | Unop (op, a) -> unop_value op (eval env a)
  | Binop (And, a, b) -> V_bool (eval_bool env a && eval_bool env b)
  | Binop (Or, a, b) -> V_bool (eval_bool env a || eval_bool env b)
  | Binop (op, a, b) ->
    let va = eval env a and vb = eval env b in
    binop_value op va vb

and unop_value op v =
  match op with
  | Not -> V_bool (not (bool_of_value v))
  | Neg -> (
    match v with
    | V_int n -> V_int (-n)
    | V_float f -> V_float (-.f)
    | V_bool _ -> invalid_arg "Expr.eval: neg of bool")
  | Exp -> V_float (Stdlib.exp (float_of_value v))
  | Log -> V_float (Stdlib.log (float_of_value v))
  | Sqrt -> V_float (Stdlib.sqrt (float_of_value v))
  | Tanh -> V_float (Stdlib.tanh (float_of_value v))
  | Erf -> V_float (erf (float_of_value v))
  | Abs -> (
    match v with
    | V_int n -> V_int (Stdlib.abs n)
    | V_float f -> V_float (Float.abs f)
    | V_bool _ -> invalid_arg "Expr.eval: abs of bool")

and binop_value op va vb =
  match (va, vb) with
  | V_int x, V_int y -> eval_int_binop op x y
  | (V_float _ | V_int _), (V_float _ | V_int _) ->
    eval_float_binop op (float_of_value va) (float_of_value vb)
  | _ -> invalid_arg "Expr.eval: bool operand to arithmetic binop"

and eval_int_binop op x y =
  match op with
  | Add -> V_int (x + y)
  | Sub -> V_int (x - y)
  | Mul -> V_int (x * y)
  | Div -> V_int (idiv x y)
  | Mod -> V_int (imod x y)
  | Min -> V_int (min x y)
  | Max -> V_int (max x y)
  | Lt -> V_bool (x < y)
  | Le -> V_bool (x <= y)
  | Gt -> V_bool (x > y)
  | Ge -> V_bool (x >= y)
  | Eq -> V_bool (x = y)
  | Ne -> V_bool (x <> y)
  | And | Or -> assert false

and eval_float_binop op x y =
  match op with
  | Add -> V_float (x +. y)
  | Sub -> V_float (x -. y)
  | Mul -> V_float (x *. y)
  | Div -> V_float (x /. y)
  | Mod -> V_float (Float.rem x y)
  | Min -> V_float (Float.min x y)
  | Max -> V_float (Float.max x y)
  | Lt -> V_bool (x < y)
  | Le -> V_bool (x <= y)
  | Gt -> V_bool (x > y)
  | Ge -> V_bool (x >= y)
  | Eq -> V_bool (x = y)
  | Ne -> V_bool (x <> y)
  | And | Or -> assert false

and eval_int env e = int_of_value (eval env e)
and eval_float env e = float_of_value (eval env e)
and eval_bool env e = bool_of_value (eval env e)

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Min -> "min"
  | Max -> "max"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"

let unop_name = function
  | Neg -> "-"
  | Not -> "!"
  | Exp -> "expf"
  | Log -> "logf"
  | Sqrt -> "sqrtf"
  | Tanh -> "tanhf"
  | Erf -> "erff"
  | Abs -> "fabsf"

let rec pp fmt = function
  | Int n -> Format.pp_print_int fmt n
  | Float f -> Format.fprintf fmt "%g" f
  | Bool b -> Format.pp_print_bool fmt b
  | Var v -> Var.pp fmt v
  | Thread_idx -> Format.pp_print_string fmt "threadIdx.x"
  | Block_idx -> Format.pp_print_string fmt "blockIdx.x"
  | Binop (((Min | Max) as op), a, b) ->
    Format.fprintf fmt "%s(%a, %a)" (binop_symbol op) pp a pp b
  | Binop (op, a, b) ->
    Format.fprintf fmt "(%a %s %a)" pp a (binop_symbol op) pp b
  | Unop (((Neg | Not) as op), a) -> Format.fprintf fmt "%s%a" (unop_name op) pp a
  | Unop (op, a) -> Format.fprintf fmt "%s(%a)" (unop_name op) pp a
  | Select (c, a, b) -> Format.fprintf fmt "(%a ? %a : %a)" pp c pp a pp b
  | Load (buf, idx) ->
    Format.fprintf fmt "%s%a" buf.Buffer.name
      (Format.pp_print_list ~pp_sep:(fun _ () -> ()) (fun fmt e ->
           Format.fprintf fmt "[%a]" pp e))
      idx

let to_string e = Format.asprintf "%a" pp e
