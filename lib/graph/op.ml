module Def = Hidet_compute.Def
module Expr = Hidet_ir.Expr
module Tensor = Hidet_tensor.Tensor

type pool_kind = Max_pool | Avg_pool
type unary = Relu | Gelu | Tanh_act | Sigmoid | Scale_by of float | Clip of float * float
type binary = Add | Sub | Mul

type t =
  | Input
  | Constant of { value : Tensor.t Lazy.t }
  | Matmul
  | Conv2d of { stride : int; pad_h : int; pad_w : int }
  | Depthwise_conv2d of { stride : int; padding : int }
  | Pool2d of { kind : pool_kind; kernel : int; stride : int; padding : int }
  | Global_avg_pool
  | Unary of unary
  | Binary of binary
  | Bias_add
  | Scale_shift
  | Softmax
  | Layernorm of { eps : float }
  | Reshape of int list
  | Transpose of int list
  | Concat of { axis : int }
  | Im2col of { kh : int; kw : int; stride : int; pad_h : int; pad_w : int }
  | Embedding

let unary_name = function
  | Relu -> "relu"
  | Gelu -> "gelu"
  | Tanh_act -> "tanh"
  | Sigmoid -> "sigmoid"
  | Scale_by f -> Printf.sprintf "scale_%g" f
  | Clip (lo, hi) -> Printf.sprintf "clip_%g_%g" lo hi

let binary_name = function Add -> "add" | Sub -> "sub" | Mul -> "mul"

let name = function
  | Input -> "input"
  | Constant _ -> "constant"
  | Matmul -> "matmul"
  | Conv2d { stride; pad_h; pad_w } ->
    Printf.sprintf "conv2d_s%dp%dx%d" stride pad_h pad_w
  | Depthwise_conv2d { stride; padding } ->
    Printf.sprintf "dwconv_s%dp%d" stride padding
  | Pool2d { kind; kernel; stride; padding } ->
    Printf.sprintf "%spool_k%ds%dp%d"
      (match kind with Max_pool -> "max" | Avg_pool -> "avg")
      kernel stride padding
  | Global_avg_pool -> "global_avg_pool"
  | Unary u -> unary_name u
  | Binary b -> binary_name b
  | Bias_add -> "bias_add"
  | Scale_shift -> "scale_shift"
  | Softmax -> "softmax"
  | Layernorm _ -> "layernorm"
  | Reshape _ -> "reshape"
  | Transpose _ -> "transpose"
  | Concat { axis } -> Printf.sprintf "concat%d" axis
  | Im2col { kh; kw; stride; pad_h; pad_w } ->
    Printf.sprintf "im2col_k%dx%ds%dp%dx%d" kh kw stride pad_h pad_w
  | Embedding -> "embedding"

let numel shape = List.fold_left ( * ) 1 shape
let conv_out h k stride padding = ((h + (2 * padding) - k) / stride) + 1

(* The op's name is formatted only when raising: [infer_shape] runs on
   every [Graph.add_op]. *)
let bad op fmt =
  Printf.ksprintf (fun s -> invalid_arg (Printf.sprintf "Op %s: %s" (name op) s)) fmt

let resolve_reshape op in_numel target =
  match List.filter (fun d -> d = -1) target with
  | [] ->
    if numel target <> in_numel then bad op "reshape size mismatch";
    target
  | [ _ ] ->
    let known = List.fold_left (fun a d -> if d = -1 then a else a * d) 1 target in
    if known = 0 || in_numel mod known <> 0 then bad op "cannot infer wildcard";
    List.map (fun d -> if d = -1 then in_numel / known else d) target
  | _ -> bad op "multiple wildcards"

let last_axis op = function
  | [] -> bad op "rank-0 input has no last axis"
  | s -> List.nth s (List.length s - 1)

let stride = function
  | Conv2d { stride; _ }
  | Depthwise_conv2d { stride; _ }
  | Pool2d { stride; _ }
  | Im2col { stride; _ } ->
    stride
  | _ -> 1

let kernel op k = if k <= 0 then bad op "kernel %d is not positive" k
let padding op p = if p < 0 then bad op "padding %d is negative" p

(* The windowed ops' explicit kernel extents and paddings (a conv's kernel
   comes from its weight's shape). *)
let check_window op =
  match op with
  | Conv2d { pad_h; pad_w; _ } ->
    padding op pad_h;
    padding op pad_w
  | Depthwise_conv2d { padding = p; _ } -> padding op p
  | Pool2d { kernel = k; padding = p; _ } ->
    kernel op k;
    padding op p
  | Im2col { kh; kw; pad_h; pad_w; _ } ->
    kernel op kh;
    kernel op kw;
    padding op pad_h;
    padding op pad_w
  | _ -> ()

let infer op in_shapes =
  match (op, in_shapes) with
  | (Input | Constant _), _ -> bad op "shape is intrinsic, not inferred"
  | Matmul, [ [ m; k ]; [ k'; n_ ] ] when k = k' -> [ m; n_ ]
  | Matmul, [ [ b; m; k ]; [ k'; n_ ] ] when k = k' -> [ b; m; n_ ]
  | Matmul, [ [ m; k ]; [ b; k'; n_ ] ] when k = k' -> [ b; m; n_ ]
  | Matmul, [ [ b; m; k ]; [ b'; k'; n_ ] ] when k = k' && b = b' -> [ b; m; n_ ]
  | Matmul, _ -> bad op "incompatible matmul shapes"
  | Conv2d { stride; pad_h; pad_w }, [ [ nb; c; h; w ]; [ oc; c'; kh; kw ] ]
    when c = c' ->
    [ nb; oc; conv_out h kh stride pad_h; conv_out w kw stride pad_w ]
  | Conv2d _, _ -> bad op "expected NCHW x OIHW"
  | Depthwise_conv2d { stride; padding }, [ [ nb; c; h; w ]; [ c'; 1; kh; kw ] ]
    when c = c' ->
    [ nb; c; conv_out h kh stride padding; conv_out w kw stride padding ]
  | Depthwise_conv2d _, _ -> bad op "expected NCHW x [c,1,kh,kw]"
  | Pool2d { kernel; stride; padding; _ }, [ [ nb; c; h; w ] ] ->
    [ nb; c; conv_out h kernel stride padding; conv_out w kernel stride padding ]
  | Pool2d _, _ -> bad op "expected NCHW"
  | Global_avg_pool, [ [ nb; c; _; _ ] ] -> [ nb; c; 1; 1 ]
  | Global_avg_pool, _ -> bad op "expected NCHW"
  | Unary _, [ s ] -> s
  | Unary _, _ -> bad op "expected one input"
  | Binary _, [ s1; s2 ] when s1 = s2 -> s1
  | Binary _, _ -> bad op "expected two same-shape inputs"
  | Bias_add, [ s; [ d ] ] when last_axis op s = d -> s
  | Bias_add, _ -> bad op "bias must match last axis"
  | Scale_shift, [ ([ _; c; _; _ ] as s); [ c1 ]; [ c2 ] ] when c = c1 && c = c2
    ->
    s
  | Scale_shift, _ -> bad op "expected NCHW with [c] scale and shift"
  | Softmax, [ s ] ->
    ignore (last_axis op s);
    s
  | Softmax, _ -> bad op "expected one input"
  | Layernorm _, [ s; [ d ]; [ d' ] ] when d = d' && last_axis op s = d -> s
  | Layernorm _, _ -> bad op "expected x, gamma, beta over the last axis"
  | Reshape target, [ s ] -> resolve_reshape op (numel s) target
  | Reshape _, _ -> bad op "expected one input"
  | Transpose perm, [ s ] ->
    if List.sort compare perm <> List.init (List.length s) Fun.id then
      bad op "not a permutation";
    List.map (fun p -> List.nth s p) perm
  | Transpose _, _ -> bad op "expected one input"
  | Concat { axis }, (first :: _ as shapes) ->
    let rank = List.length first in
    if axis < 0 || axis >= rank then bad op "bad axis";
    List.iteri
      (fun _ s ->
        if List.length s <> rank then bad op "rank mismatch";
        List.iteri
          (fun i d -> if i <> axis && d <> List.nth first i then bad op "off-axis mismatch")
          s)
      shapes;
    let total = List.fold_left (fun a s -> a + List.nth s axis) 0 shapes in
    List.mapi (fun i d -> if i = axis then total else d) first
  | Concat _, [] -> bad op "empty concat"
  | Im2col { kh; kw; stride; pad_h; pad_w }, [ [ nb; c; h; w ] ] ->
    [ nb; c * kh * kw; conv_out h kh stride pad_h * conv_out w kw stride pad_w ]
  | Im2col _, _ -> bad op "expected NCHW"
  | Embedding, [ [ b; s ]; [ _; d ] ] -> [ b; s; d ]
  | Embedding, _ -> bad op "expected ids [b,s] and table [vocab,d]"

let infer_shape op in_shapes =
  if stride op <= 0 then bad op "stride %d is not positive" (stride op);
  check_window op;
  let out = infer op in_shapes in
  if List.exists (fun d -> d <= 0) out then
    bad op "non-positive output dim in [%s]"
      (String.concat "; " (List.map string_of_int out));
  out

let is_anchor = function
  | Matmul | Conv2d _ | Depthwise_conv2d _ | Pool2d _ | Global_avg_pool
  | Softmax | Layernorm _ ->
    true
  | Input | Constant _ | Unary _ | Binary _ | Bias_add | Scale_shift
  | Reshape _ | Transpose _ | Concat _ | Im2col _ | Embedding ->
    false

let is_injective op _in_shapes =
  match op with
  | Unary _ | Binary _ | Bias_add | Scale_shift | Reshape _ | Transpose _
  | Im2col _ ->
    true
  | Input | Constant _ | Matmul | Conv2d _ | Depthwise_conv2d _ | Pool2d _
  | Global_avg_pool | Softmax | Layernorm _ | Concat _ | Embedding ->
    false

let is_bijective op _in_shapes =
  match op with
  | Unary _ | Binary _ | Bias_add | Scale_shift | Reshape _ | Transpose _ ->
    true
  | Input | Constant _ | Matmul | Conv2d _ | Depthwise_conv2d _ | Pool2d _
  | Global_avg_pool | Softmax | Layernorm _ | Concat _ | Im2col _ | Embedding ->
    false

(* --- computation definitions ------------------------------------------------ *)

let axes_of shape = List.mapi (fun i _ -> Def.axis i) shape
let axis_ = Def.axis
let identity_bijection idx = idx

let unary_body u x =
  let open Def in
  match u with
  | Relu -> maxs x (const 0.)
  | Gelu ->
    (* 0.5 * x * (1 + erf(x / sqrt 2)) *)
    const 0.5 * x * (const 1. + Un (Expr.Erf, x * const (1. /. sqrt 2.)))
  | Tanh_act -> Un (Expr.Tanh, x)
  | Sigmoid -> const 1. / (const 1. + Un (Expr.Exp, Un (Expr.Neg, x)))
  | Scale_by f -> x * const f
  | Clip (lo, hi) -> maxs (Bin (Expr.Min, x, const hi)) (const lo)

let to_def op in_shapes =
  let out_shape = infer_shape op in_shapes in
  let mk ?reduce ?bijection body =
    Def.create ?reduce ?bijection ~name:(name op) ~in_shapes ~out_shape body
  in
  match (op, in_shapes) with
  | Matmul, [ sa; sb ] ->
    (* Naive definition (one reduction per output element): the universal
       fallback when no template schedule applies. *)
    let k = List.nth sa (Stdlib.( - ) (List.length sa) 1) in
    let open Def in
    let a_idx, b_idx =
      match (List.length sa, List.length sb) with
      | 2, 2 -> ([ axis 0; raxis 0 ], [ raxis 0; axis 1 ])
      | 3, 2 -> ([ axis 0; axis 1; raxis 0 ], [ raxis 0; axis 2 ])
      | 3, 3 -> ([ axis 0; axis 1; raxis 0 ], [ axis 0; raxis 0; axis 2 ])
      | 2, 3 -> ([ axis 1; raxis 0 ], [ axis 0; raxis 0; axis 2 ])
      | _ -> bad op "unsupported matmul ranks"
    in
    mk ~reduce:([ k ], Def.Sum) (input 0 a_idx * input 1 b_idx)
  | Unary u, [ s ] ->
    mk ~bijection:identity_bijection (unary_body u (Def.input 0 (axes_of s)))
  | Binary b, [ s; _ ] ->
    let x = Def.input 0 (axes_of s) and y = Def.input 1 (axes_of s) in
    let body =
      match b with
      | Add -> Def.( + ) x y
      | Sub -> Def.( - ) x y
      | Mul -> Def.( * ) x y
    in
    mk ~bijection:identity_bijection body
  | Bias_add, [ s; _ ] ->
    let last = List.length s - 1 in
    mk ~bijection:identity_bijection
      (Def.( + ) (Def.input 0 (axes_of s)) (Def.input 1 [ Def.axis last ]))
  | Scale_shift, [ s; _; _ ] ->
    mk ~bijection:identity_bijection
      (Def.( + )
         (Def.( * ) (Def.input 0 (axes_of s)) (Def.input 1 [ Def.axis 1 ]))
         (Def.input 2 [ Def.axis 1 ]))
  | Reshape _, [ s ] ->
    (* out[axes] = in[unflatten_in(flatten_out(axes))] *)
    let flat_scalar =
      List.fold_left2
        (fun acc a d -> Def.( + ) (Def.( * ) acc (Def.iconst d)) a)
        (Def.iconst 0) (axes_of out_shape) out_shape
    in
    let in_idx =
      List.mapi
        (fun i d ->
          let stride = numel (List.filteri (fun j _ -> j > i) s) in
          let q = Def.( / ) flat_scalar (Def.iconst stride) in
          if i = 0 then q else Def.Bin (Expr.Mod, q, Def.iconst d))
        s
    in
    let bijection in_exprs =
      let flat =
        List.fold_left2
          (fun acc e d -> Expr.add (Expr.mul acc (Expr.int d)) e)
          (Expr.int 0) in_exprs s
      in
      List.mapi
        (fun i d ->
          let stride = numel (List.filteri (fun j _ -> j > i) out_shape) in
          let q = Expr.div flat (Expr.int stride) in
          if i = 0 then q else Expr.modulo q (Expr.int d))
        out_shape
    in
    mk ~bijection (Def.input 0 in_idx)
  | Transpose perm, [ s ] ->
    (* out axis j reads input axis perm[j]; so input axis d is read at the
       output position where perm[pos] = d. *)
    let rank = List.length s in
    let pos_of d =
      let rec find i = function
        | [] -> assert false
        | p :: rest -> if p = d then i else find (i + 1) rest
      in
      find 0 perm
    in
    let in_idx = List.init rank (fun d -> Def.axis (pos_of d)) in
    let bijection in_exprs = List.map (fun p -> List.nth in_exprs p) perm in
    mk ~bijection (Def.input 0 in_idx)
  | Im2col { kh; kw; stride; pad_h; pad_w }, [ [ _; _; h; w ] ] ->
    let ow = conv_out w kw stride pad_w in
    let open Def in
    let a0 = axis 0 and a1 = axis 1 and a2 = axis 2 in
    let ci = a1 / iconst (Stdlib.( * ) kh kw) in
    let khi = Bin (Expr.Mod, a1 / iconst kw, iconst kh) in
    let kwi = Bin (Expr.Mod, a1, iconst kw) in
    let ohi = a2 / iconst ow in
    let owi = Bin (Expr.Mod, a2, iconst ow) in
    let hi = (ohi * iconst stride) + khi - iconst pad_h in
    let wi = (owi * iconst stride) + kwi - iconst pad_w in
    let in_bounds =
      ands
        (ands (ges hi (iconst 0)) (lts hi (iconst h)))
        (ands (ges wi (iconst 0)) (lts wi (iconst w)))
    in
    mk (sel in_bounds (input 0 [ a0; ci; hi; wi ]) (const 0.))
  | Conv2d { stride; pad_h; pad_w }, [ [ _; c; h; w ]; [ _; _; kh; kw ] ] ->
    let open Def in
    let hi = (axis 2 * iconst stride) + raxis 1 - iconst pad_h in
    let wi = (axis 3 * iconst stride) + raxis 2 - iconst pad_w in
    let in_bounds =
      ands
        (ands (ges hi (iconst 0)) (lts hi (iconst h)))
        (ands (ges wi (iconst 0)) (lts wi (iconst w)))
    in
    mk
      ~reduce:([ c; kh; kw ], Def.Sum)
      (sel in_bounds
         (input 0 [ axis 0; raxis 0; hi; wi ]
         * input 1 [ axis 1; raxis 0; raxis 1; raxis 2 ])
         (const 0.))
  | Depthwise_conv2d { stride; padding }, [ [ _; _; h; w ]; [ _; _; kh; kw ] ] ->
    let open Def in
    let hi = (axis 2 * iconst stride) + raxis 0 - iconst padding in
    let wi = (axis 3 * iconst stride) + raxis 1 - iconst padding in
    let in_bounds =
      ands
        (ands (ges hi (iconst 0)) (lts hi (iconst h)))
        (ands (ges wi (iconst 0)) (lts wi (iconst w)))
    in
    mk
      ~reduce:([ kh; kw ], Def.Sum)
      (sel in_bounds
         (input 0 [ axis 0; axis 1; hi; wi ]
         * input 1 [ axis 1; iconst 0; raxis 0; raxis 1 ])
         (const 0.))
  | Pool2d { kind; kernel; stride; padding }, [ [ _; _; h; w ] ] ->
    let open Def in
    let hi = (axis 2 * iconst stride) + raxis 0 - iconst padding in
    let wi = (axis 3 * iconst stride) + raxis 1 - iconst padding in
    let in_bounds =
      ands
        (ands (ges hi (iconst 0)) (lts hi (iconst h)))
        (ands (ges wi (iconst 0)) (lts wi (iconst w)))
    in
    let x = input 0 [ axis 0; axis 1; hi; wi ] in
    (match kind with
    | Max_pool ->
      mk
        ~reduce:([ kernel; kernel ], Def.Max_reduce)
        (sel in_bounds x (const neg_infinity))
    | Avg_pool ->
      (* Sum of x / k^2 = average with padding counted, matching the
         reference avgpool2d. *)
      mk
        ~reduce:([ kernel; kernel ], Def.Sum)
        (sel in_bounds
           (x / const (float_of_int (Stdlib.( * ) kernel kernel)))
           (const 0.)))
  | Concat { axis = ax }, shapes ->
    (* Select-chain over the concatenation axis. *)
    let open Def in
    let rank = List.length out_shape in
    let a = axis_ ax in
    let rec chain k off = function
      | [] -> const 0.
      | s :: rest ->
        let d = List.nth s ax in
        let idx =
          List.init rank (fun i -> if i = ax then a - iconst off else axis_ i)
        in
        if rest = [] then input k idx
        else
          sel
            (lts a (iconst (Stdlib.( + ) off d)))
            (input k idx)
            (chain (Stdlib.( + ) k 1) (Stdlib.( + ) off d) rest)
    in
    mk (chain 0 0 shapes)
  | Embedding, [ [ _; _ ]; _ ] ->
    let open Def in
    mk (input 1 [ input 0 [ axis 0; axis 1 ]; axis 2 ])
  | Global_avg_pool, [ [ _; _; h; w ] ] ->
    let open Def in
    mk
      ~reduce:([ h; w ], Def.Sum)
      (input 0 [ axis 0; axis 1; raxis 0; raxis 1 ]
      / const (float_of_int (Stdlib.( * ) h w)))
  | _ -> bad op "no computation definition (template- or graph-level operator)"

(* --- reference semantics ------------------------------------------------------ *)

let eval op inputs =
  match (op, inputs) with
  | Input, _ -> bad op "inputs are bound, not evaluated"
  | Constant { value }, [] -> Lazy.force value
  | Constant _, _ -> bad op "constants take no inputs"
  | Matmul, [ a; b ] -> Tensor.matmul a b
  | Conv2d { stride; pad_h; pad_w }, [ x; w ] ->
    Tensor.conv2d_hw x w ~stride ~pad_h ~pad_w
  | Depthwise_conv2d { stride; padding }, [ x; w ] ->
    Tensor.depthwise_conv2d x w ~stride ~padding
  | Pool2d { kind = Max_pool; kernel; stride; padding }, [ x ] ->
    Tensor.maxpool2d x ~kernel ~stride ~padding
  | Pool2d { kind = Avg_pool; kernel; stride; padding }, [ x ] ->
    Tensor.avgpool2d x ~kernel ~stride ~padding
  | Global_avg_pool, [ x ] -> Tensor.global_avgpool x
  | Unary Relu, [ x ] -> Tensor.relu x
  | Unary Gelu, [ x ] -> Tensor.gelu x
  | Unary Tanh_act, [ x ] -> Tensor.tanh_ x
  | Unary Sigmoid, [ x ] -> Tensor.sigmoid x
  | Unary (Scale_by f), [ x ] -> Tensor.map (fun v -> v *. f) x
  | Unary (Clip (lo, hi)), [ x ] ->
    Tensor.map (fun v -> Float.max lo (Float.min hi v)) x
  | Embedding, [ ids; table ] -> (
    match (Tensor.shape ids, Tensor.shape table) with
    | [ b; s ], [ vocab; d ] ->
      Tensor.init [ b; s; d ] (fun idx ->
          match idx with
          | [ bi; si; di ] ->
            let id = int_of_float (Tensor.get ids [ bi; si ]) in
            if id < 0 || id >= vocab then bad op "token id out of range"
            else Tensor.get table [ id; di ]
          | _ -> assert false)
    | _ -> bad op "embedding shapes")
  | Binary Add, [ x; y ] -> Tensor.add x y
  | Binary Sub, [ x; y ] -> Tensor.sub x y
  | Binary Mul, [ x; y ] -> Tensor.mul x y
  | Bias_add, [ x; b ] -> Tensor.add x b
  | Scale_shift, [ x; scale; shift ] -> Tensor.scale_shift x ~scale ~shift ~axis:1
  | Softmax, [ x ] -> Tensor.softmax x ~axis:(List.length (Tensor.shape x) - 1)
  | Layernorm { eps }, [ x; gamma; beta ] -> Tensor.layernorm x ~gamma ~beta ~eps
  | Reshape target, [ x ] ->
    Tensor.reshape x (resolve_reshape op (Tensor.numel x) target)
  | Transpose perm, [ x ] -> Tensor.transpose x perm
  | Concat { axis }, xs -> Tensor.concat xs ~axis
  | Im2col { kh; kw; stride; pad_h; pad_w }, [ x ] ->
    Tensor.im2col_hw x ~kh ~kw ~stride ~pad_h ~pad_w
  | _, _ -> bad op "wrong number of inputs"
