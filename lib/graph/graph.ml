module Tensor = Hidet_tensor.Tensor

type node = { id : int; op : Op.t; inputs : int list; shape : int list }

(* Ids are dense (node [i] is the [i]-th appended), so the nodes live in a
   growable array indexed by id, and each id's consumers are recorded as
   its consumers are appended. Slots at and past [next_id] are unused
   capacity. *)
type t = {
  mutable by_id : node array;
  mutable users : int list array;  (* consumer ids, newest first *)
  mutable next_id : int;
  mutable outs : int list;
  mutable gname : string;
}

let unused = { id = -1; op = Op.Input; inputs = []; shape = [] }

let create () =
  {
    by_id = Array.make 16 unused;
    users = Array.make 16 [];
    next_id = 0;
    outs = [];
    gname = "graph";
  }

let name g s = g.gname <- s
let get_name g = g.gname

let node g id =
  if id < 0 || id >= g.next_id then
    invalid_arg (Printf.sprintf "Graph.node: no node %d" id);
  g.by_id.(id)

let node_shape g id = (node g id).shape

let grow a fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let append g op inputs shape =
  let id = g.next_id in
  if id = Array.length g.by_id then begin
    g.by_id <- grow g.by_id unused;
    g.users <- grow g.users []
  end;
  g.by_id.(id) <- { id; op; inputs; shape };
  (* A repeated input already has [id] at the head of its users. *)
  List.iter
    (fun i ->
      match g.users.(i) with
      | j :: _ when j = id -> ()
      | us -> g.users.(i) <- id :: us)
    inputs;
  g.next_id <- id + 1;
  (* Every new node is an output until overridden; keeps small graphs easy. *)
  g.outs <- [ id ];
  id

(* A leaf's shape is given, not inferred, so it is checked here: the error
   then names the leaf, not its first consumer. *)
let leaf g op shape =
  if List.exists (fun d -> d <= 0) shape then
    invalid_arg
      (Printf.sprintf "Graph.%s: non-positive dim in [%s]" (Op.name op)
         (String.concat "; " (List.map string_of_int shape)));
  append g op [] shape

let input g shape = leaf g Op.Input shape
let constant g tensor = leaf g (Op.Constant { value = lazy tensor }) (Tensor.shape tensor)
let constant_lazy g shape value = leaf g (Op.Constant { value }) shape

let constant_rand g ?(seed = 0) shape =
  let seed = seed + (Hashtbl.hash shape * 7919) in
  leaf g (Op.Constant { value = lazy (Tensor.rand ~seed shape) }) shape

let add_op g op inputs =
  let in_shapes = List.map (node_shape g) inputs in
  let shape = Op.infer_shape op in_shapes in
  append g op inputs shape

let matmul g a b = add_op g Op.Matmul [ a; b ]
let conv2d g x w ~stride ~padding =
  add_op g (Op.Conv2d { stride; pad_h = padding; pad_w = padding }) [ x; w ]

let conv2d_asym g x w ~stride ~pad_h ~pad_w =
  add_op g (Op.Conv2d { stride; pad_h; pad_w }) [ x; w ]

let depthwise_conv2d g x w ~stride ~padding =
  add_op g (Op.Depthwise_conv2d { stride; padding }) [ x; w ]

let relu g x = add_op g (Op.Unary Op.Relu) [ x ]
let gelu g x = add_op g (Op.Unary Op.Gelu) [ x ]
let add g a b = add_op g (Op.Binary Op.Add) [ a; b ]
let bias_add g x b = add_op g Op.Bias_add [ x; b ]
let scale_shift g x ~scale ~shift = add_op g Op.Scale_shift [ x; scale; shift ]
let softmax g x = add_op g Op.Softmax [ x ]

let layernorm g ?(eps = 1e-5) x ~gamma ~beta =
  add_op g (Op.Layernorm { eps }) [ x; gamma; beta ]

let reshape g x shape = add_op g (Op.Reshape shape) [ x ]
let transpose g x perm = add_op g (Op.Transpose perm) [ x ]
let concat g xs ~axis = add_op g (Op.Concat { axis }) xs

let maxpool g x ~kernel ~stride ~padding =
  add_op g (Op.Pool2d { kind = Op.Max_pool; kernel; stride; padding }) [ x ]

let avgpool g x ~kernel ~stride ~padding =
  add_op g (Op.Pool2d { kind = Op.Avg_pool; kernel; stride; padding }) [ x ]

let global_avgpool g x = add_op g Op.Global_avg_pool [ x ]
let set_outputs g ids = g.outs <- ids
let nodes g =
  let rec from i acc = if i < 0 then acc else from (i - 1) (g.by_id.(i) :: acc) in
  from (g.next_id - 1) []
let outputs g = g.outs

let input_ids g =
  List.filter_map
    (fun n -> match n.op with Op.Input -> Some n.id | _ -> None)
    (nodes g)

let consumers g id =
  if id < 0 || id >= g.next_id then [] else List.rev g.users.(id)

let num_nodes g = g.next_id

let flops g =
  List.fold_left
    (fun acc n ->
      let in_shapes = List.map (node_shape g) n.inputs in
      match (n.op, in_shapes, n.shape) with
      | Op.Matmul, [ a_shape; _ ], out ->
        let k = List.nth a_shape (List.length a_shape - 1) in
        acc +. (2. *. float_of_int (List.fold_left ( * ) 1 out * k))
      | Op.Conv2d _, [ _; [ _; c; kh; kw ] ], out ->
        acc +. (2. *. float_of_int (List.fold_left ( * ) 1 out * c * kh * kw))
      | Op.Depthwise_conv2d _, [ _; [ _; _; kh; kw ] ], out ->
        acc +. (2. *. float_of_int (List.fold_left ( * ) 1 out * kh * kw))
      | _ -> acc)
    0. (nodes g)

let pp fmt g =
  Format.fprintf fmt "@[<v>graph %s (%d nodes):@," g.gname (num_nodes g);
  List.iter
    (fun n ->
      Format.fprintf fmt "  %%%d = %s(%s) : [%s]@," n.id (Op.name n.op)
        (String.concat ", " (List.map (fun i -> "%" ^ string_of_int i) n.inputs))
        (String.concat "x" (List.map string_of_int n.shape)))
    (nodes g);
  Format.fprintf fmt "  outputs: %s@]"
    (String.concat ", " (List.map (fun i -> "%" ^ string_of_int i) g.outs))
