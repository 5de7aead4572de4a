module Tensor = Hidet_tensor.Tensor

let inline_data_threshold = 4096

(* --- tiny s-expression layer ---------------------------------------------- *)

type sexp = Atom of string | List of sexp list

let rec print_sexp buf = function
  | Atom s -> Buffer.add_string buf s
  | List items ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ' ';
        print_sexp buf item)
      items;
    Buffer.add_char buf ')'

exception Parse_error of int * string

let parse_sexps (s : string) : sexp list =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | ';' ->
        while !pos < n && s.[!pos] <> '\n' do incr pos done;
        skip_ws ()
      | _ -> ()
  in
  let atom () =
    if s.[!pos] = '"' then begin
      incr pos;
      let b = Buffer.create 16 in
      let rec chars () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            Buffer.add_char b s.[!pos];
            incr pos;
            chars ()
          | c ->
            Buffer.add_char b c;
            incr pos;
            chars ()
      in
      chars ();
      Atom (Buffer.contents b)
    end
    else begin
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' | '(' | ')' -> false | _ -> true
      do
        incr pos
      done;
      if start = !pos then fail "empty atom";
      Atom (String.sub s start (!pos - start))
    end
  in
  let rec expr () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    if s.[!pos] = '(' then begin
      incr pos;
      let items = ref [] in
      let rec loop () =
        skip_ws ();
        if !pos >= n then fail "unterminated list";
        if s.[!pos] = ')' then incr pos
        else begin
          items := expr () :: !items;
          loop ()
        end
      in
      loop ();
      List (List.rev !items)
    end
    else atom ()
  in
  let out = ref [] in
  skip_ws ();
  while !pos < n do
    out := expr () :: !out;
    skip_ws ()
  done;
  List.rev !out

(* --- op <-> sexp ----------------------------------------------------------- *)

let f2s f = Printf.sprintf "%h" f
let s2f s = try float_of_string s with _ -> failwith ("bad float " ^ s)
let i2a i = Atom (string_of_int i)
let ints_of = List.map (fun i -> i2a i)

(* [shape] is the node's: a constant too large to inline is never forced. *)
let op_to_sexp ~shape (op : Op.t) : sexp =
  let l name args = List (Atom name :: args) in
  match op with
  | Op.Input -> l "input" []
  | Op.Constant { value } ->
    if List.fold_left ( * ) 1 shape <= inline_data_threshold then
      let t = Lazy.force value in
      l "constant"
        [ List (Atom "data" :: Array.to_list (Array.map (fun v -> Atom (f2s v)) (Tensor.data t))) ]
    else l "constant" [ Atom "random" ]
  | Op.Matmul -> l "matmul" []
  | Op.Conv2d { stride; pad_h; pad_w } -> l "conv2d" (ints_of [ stride; pad_h; pad_w ])
  | Op.Depthwise_conv2d { stride; padding } -> l "dwconv2d" (ints_of [ stride; padding ])
  | Op.Pool2d { kind; kernel; stride; padding } ->
    l "pool2d"
      (Atom (match kind with Op.Max_pool -> "max" | Op.Avg_pool -> "avg")
      :: ints_of [ kernel; stride; padding ])
  | Op.Global_avg_pool -> l "global_avg_pool" []
  | Op.Unary Op.Relu -> l "relu" []
  | Op.Unary Op.Gelu -> l "gelu" []
  | Op.Unary Op.Tanh_act -> l "tanh" []
  | Op.Unary Op.Sigmoid -> l "sigmoid" []
  | Op.Unary (Op.Scale_by f) -> l "scale" [ Atom (f2s f) ]
  | Op.Unary (Op.Clip (lo, hi)) -> l "clip" [ Atom (f2s lo); Atom (f2s hi) ]
  | Op.Binary Op.Add -> l "add" []
  | Op.Binary Op.Sub -> l "sub" []
  | Op.Binary Op.Mul -> l "mul" []
  | Op.Bias_add -> l "bias_add" []
  | Op.Scale_shift -> l "scale_shift" []
  | Op.Softmax -> l "softmax" []
  | Op.Layernorm { eps } -> l "layernorm" [ Atom (f2s eps) ]
  | Op.Reshape target -> l "reshape" (ints_of target)
  | Op.Transpose perm -> l "transpose" (ints_of perm)
  | Op.Concat { axis } -> l "concat" [ i2a axis ]
  | Op.Im2col { kh; kw; stride; pad_h; pad_w } ->
    l "im2col" (ints_of [ kh; kw; stride; pad_h; pad_w ])
  | Op.Embedding -> l "embedding" []

let int_of = function Atom a -> (try int_of_string a with _ -> failwith ("bad int " ^ a)) | List _ -> failwith "expected int"
let ints_from = List.map int_of

(* [shape] and [node id] supply context for constants. *)
let op_of_sexp ~shape ~node_id (s : sexp) : Op.t =
  match s with
  | List (Atom name :: args) -> (
    match (name, args) with
    | "input", [] -> Op.Input
    | "constant", [ Atom "random" ] ->
      Op.Constant
        { value = lazy (Tensor.rand ~seed:(node_id + 0x517e) shape) }
    | "constant", [ List (Atom "data" :: values) ] ->
      let data =
        Array.of_list
          (List.map (function Atom a -> s2f a | List _ -> failwith "bad data") values)
      in
      if Array.length data <> List.fold_left ( * ) 1 shape then
        failwith "constant data disagrees with its shape";
      Op.Constant { value = lazy (Tensor.of_array shape data) }
    | "matmul", [] -> Op.Matmul
    | "conv2d", [ a; b; c ] ->
      Op.Conv2d { stride = int_of a; pad_h = int_of b; pad_w = int_of c }
    | "dwconv2d", [ a; b ] ->
      Op.Depthwise_conv2d { stride = int_of a; padding = int_of b }
    | "pool2d", [ Atom kind; a; b; c ] ->
      Op.Pool2d
        {
          kind = (match kind with "max" -> Op.Max_pool | "avg" -> Op.Avg_pool | _ -> failwith "bad pool kind");
          kernel = int_of a;
          stride = int_of b;
          padding = int_of c;
        }
    | "global_avg_pool", [] -> Op.Global_avg_pool
    | "relu", [] -> Op.Unary Op.Relu
    | "gelu", [] -> Op.Unary Op.Gelu
    | "tanh", [] -> Op.Unary Op.Tanh_act
    | "sigmoid", [] -> Op.Unary Op.Sigmoid
    | "scale", [ Atom f ] -> Op.Unary (Op.Scale_by (s2f f))
    | "clip", [ Atom lo; Atom hi ] -> Op.Unary (Op.Clip (s2f lo, s2f hi))
    | "add", [] -> Op.Binary Op.Add
    | "sub", [] -> Op.Binary Op.Sub
    | "mul", [] -> Op.Binary Op.Mul
    | "bias_add", [] -> Op.Bias_add
    | "scale_shift", [] -> Op.Scale_shift
    | "softmax", [] -> Op.Softmax
    | "layernorm", [ Atom eps ] -> Op.Layernorm { eps = s2f eps }
    | "reshape", target -> Op.Reshape (ints_from target)
    | "transpose", perm -> Op.Transpose (ints_from perm)
    | "concat", [ a ] -> Op.Concat { axis = int_of a }
    | "im2col", [ a; b; c; d; e ] ->
      Op.Im2col
        { kh = int_of a; kw = int_of b; stride = int_of c; pad_h = int_of d; pad_w = int_of e }
    | "embedding", [] -> Op.Embedding
    | _ -> failwith (Printf.sprintf "unknown operator %s" name))
  | _ -> failwith "expected operator list"

(* --- graph <-> text --------------------------------------------------------- *)

let escape_name s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      (match c with '"' | '\\' -> Buffer.add_char b '\\' | _ -> ());
      Buffer.add_char b c)
    s;
  Buffer.contents b

(* Every line is one s-expression, a tab and the MD5 of that s-expression,
   as in the schedule-cache file, so that a changed byte is caught on its
   own line instead of being read as a different graph. *)
let signed body = body ^ "\t" ^ Digest.to_hex (Digest.string body)

let to_string (g : Graph.t) =
  let buf = Buffer.create 4096 in
  let line body =
    Buffer.add_string buf (signed body);
    Buffer.add_char buf '\n'
  in
  let sexp s =
    let b = Buffer.create 64 in
    print_sexp b s;
    line (Buffer.contents b)
  in
  line (Printf.sprintf "(graph \"%s\")" (escape_name (Graph.get_name g)));
  List.iter
    (fun (n : Graph.node) ->
      let fields =
        [ i2a n.Graph.id; op_to_sexp ~shape:n.Graph.shape n.Graph.op ]
        @ (if n.Graph.inputs = [] then []
           else [ List (Atom "inputs" :: ints_of n.Graph.inputs) ])
        @ [ List (Atom "shape" :: ints_of n.Graph.shape) ]
      in
      sexp (List (Atom "node" :: fields)))
    (Graph.nodes g);
  sexp (List (Atom "outputs" :: ints_of (Graph.outputs g)));
  Buffer.contents buf

let field name items =
  List.find_map
    (function List (Atom n :: rest) when n = name -> Some rest | _ -> None)
    items

(* Node ids are dense and in order (node [i] is on line [i + 2]), so a
   duplicated, dropped or reordered line cannot renumber the graph. *)
let of_string s =
  let lines = String.split_on_char '\n' s in
  let lines = match List.rev lines with "" :: rest -> List.rev rest | _ -> lines in
  let fail i fmt =
    Printf.ksprintf
      (fun msg -> failwith (Printf.sprintf "Graph_io.of_string: line %d: %s" i msg))
      fmt
  in
  let parse i line =
    let body =
      match String.rindex_opt line '\t' with
      | None -> fail i "no line digest"
      | Some k ->
        let body = String.sub line 0 k in
        if Digest.to_hex (Digest.string body)
           <> String.sub line (k + 1) (String.length line - k - 1)
        then fail i "line digest mismatch";
        body
    in
    match parse_sexps body with
    | [ sexp ] -> sexp
    | _ -> fail i "expected one s-expression"
    | exception Parse_error (pos, msg) -> fail i "column %d: %s" (pos + 1) msg
  in
  let g = Graph.create () in
  let node ~id op_sexp fields =
    if id <> Graph.num_nodes g then
      failwith (Printf.sprintf "node %d where node %d was expected" id (Graph.num_nodes g));
    let shape =
      match field "shape" fields with
      | Some l -> ints_from l
      | None -> failwith "node without shape"
    in
    match op_of_sexp ~shape ~node_id:id op_sexp with
    | Op.Input -> ignore (Graph.input g shape)
    | Op.Constant { value } -> ignore (Graph.constant_lazy g shape value)
    | op ->
      let inputs =
        match field "inputs" fields with Some l -> ints_from l | None -> []
      in
      if Graph.node_shape g (Graph.add_op g op inputs) <> shape then
        failwith "recorded shape disagrees with inference"
  in
  let rec nodes i = function
    | [] -> fail i "missing (outputs ...)"
    | line :: rest -> (
      match parse i line with
      | List (Atom "node" :: id :: op_sexp :: fields) ->
        (try node ~id:(int_of id) op_sexp fields
         with Failure msg | Invalid_argument msg -> fail i "%s" msg);
        nodes (i + 1) rest
      | List (Atom "outputs" :: ids) ->
        if rest <> [] then fail (i + 1) "line after (outputs ...)";
        let ids = try ints_from ids with Failure msg -> fail i "%s" msg in
        if ids = [] then fail i "graph without outputs";
        List.iter
          (fun id -> if id < 0 || id >= Graph.num_nodes g then fail i "no node %d" id)
          ids;
        Graph.set_outputs g ids
      | _ -> fail i "expected (node ...) or (outputs ...)")
  in
  match lines with
  | [] -> fail 1 "empty input"
  | header :: rest ->
    (match parse 1 header with
    | List [ Atom "graph"; Atom name ] -> Graph.name g name
    | _ -> fail 1 "expected (graph \"name\")");
    nodes 2 rest;
    g

let save g path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string g))

let load path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      of_string (really_input_string ic (in_channel_length ic)))
