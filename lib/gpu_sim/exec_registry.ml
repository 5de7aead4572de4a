module Expr = Hidet_ir.Expr

type entry = int -> int -> float array array -> int

let table : (string, entry) Hashtbl.t = Hashtbl.create 16
let lock = Mutex.create ()

let register name fn =
  Mutex.lock lock;
  Hashtbl.replace table name fn;
  Mutex.unlock lock

let take name =
  Mutex.lock lock;
  let r = Hashtbl.find_opt table name in
  Hashtbl.remove table name;
  Mutex.unlock lock;
  r

let sync () = Effect.perform Interp.Sync
let invalid_access msg = raise (Interp.Invalid_access msg)

let oob i d name =
  invalid_access
    (Printf.sprintf "Buffer.flat_index: index %d out of bound %d on %s" i d
       name)

let rank_mismatch name =
  invalid_access (Printf.sprintf "Buffer.flat_index: rank mismatch on %s" name)

let not_allocated name scope =
  invalid_access (Printf.sprintf "buffer %s (%s) not allocated" name scope)

let unbound_var name =
  invalid_access (Printf.sprintf "unbound variable %s" name)

let mma_rank name =
  invalid_access (Printf.sprintf "mma operand of rank < 2 on %s" name)

let neg_bool () = invalid_arg "Expr.eval: neg of bool"
let abs_bool () = invalid_arg "Expr.eval: abs of bool"
let bool_binop () = invalid_arg "Expr.eval: bool operand to arithmetic binop"
let erf = Expr.erf

type value = Hidet_ir.Expr.value =
  | V_int of int
  | V_float of float
  | V_bool of bool

let int_of_value = Expr.int_of_value
let float_of_value = Expr.float_of_value
let bool_of_value = Expr.bool_of_value

let dyn_neg = function
  | V_int n -> V_int (-n)
  | V_float x -> V_float (-.x)
  | V_bool _ -> neg_bool ()

let dyn_abs = function
  | V_int n -> V_int (Stdlib.abs n)
  | V_float x -> V_float (Float.abs x)
  | V_bool _ -> abs_bool ()

(* Must stay in sync with [Exec_ocaml.binop_code]. [And]/[Or] short-circuit
   in generated code and are never encoded. *)
let binop_of_code =
  [|
    Expr.Add;
    Expr.Sub;
    Expr.Mul;
    Expr.Div;
    Expr.Mod;
    Expr.Min;
    Expr.Max;
    Expr.Lt;
    Expr.Le;
    Expr.Gt;
    Expr.Ge;
    Expr.Eq;
    Expr.Ne;
  |]

let dyn_binop code va vb =
  let op = binop_of_code.(code) in
  match (va, vb) with
  | V_int x, V_int y -> Expr.eval_int_binop op x y
  | (V_float _ | V_int _), (V_float _ | V_int _) ->
    Expr.eval_float_binop op (Expr.float_of_value va)
      (Expr.float_of_value vb)
  | _ -> bool_binop ()
