module Expr = Hidet_ir.Expr

type entry = int -> int -> float array array -> int
type block = int -> float array array array -> int
type body = Thread of entry | Block of block

let table : (string, body) Hashtbl.t = Hashtbl.create 16
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

type 'a interval = {
  threads : 'a array;
  mutable segs : ('a -> int -> unit) array;
  mutable args : int array;
  mutable len : int;
}

let interval threads = { threads; segs = [||]; args = [||]; len = 0 }

let push iv seg arg =
  if iv.len = Array.length iv.segs then begin
    let cap = max 8 (2 * iv.len) in
    let segs = Array.make cap seg and args = Array.make cap 0 in
    Array.blit iv.segs 0 segs 0 iv.len;
    Array.blit iv.args 0 args 0 iv.len;
    iv.segs <- segs;
    iv.args <- args
  end;
  Array.unsafe_set iv.segs iv.len seg;
  Array.unsafe_set iv.args iv.len arg;
  iv.len <- iv.len + 1

(* Thread-major: thread [t] runs all of its segments before thread [t + 1]
   starts, as the reference's fiber would run it from one barrier to the
   next. *)
let flush iv =
  let n = iv.len and segs = iv.segs and args = iv.args in
  iv.len <- 0;
  Array.iter
    (fun x ->
      for j = 0 to n - 1 do
        (Array.unsafe_get segs j) x (Array.unsafe_get args j)
      done)
    iv.threads

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

(* The one table of binop codes: an operator's code is its index here.
   [And]/[Or] short-circuit in generated code and are never encoded. *)
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

let binop_code op =
  match Array.find_index (( = ) op) binop_of_code with
  | Some code -> code
  | None -> invalid_arg "Exec_registry.binop_code: And/Or are never encoded"

let dyn_binop code va vb =
  let op = binop_of_code.(code) in
  match (va, vb) with
  | V_int x, V_int y -> Expr.eval_int_binop op x y
  | (V_float _ | V_int _), (V_float _ | V_int _) ->
    Expr.eval_float_binop op (Expr.float_of_value va)
      (Expr.float_of_value vb)
  | _ -> bool_binop ()
