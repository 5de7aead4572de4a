module Tensor = Hidet_tensor.Tensor

let foldable (op : Op.t) =
  match op with
  | Op.Reshape _ | Transpose _ | Unary _ | Binary _ | Bias_add | Scale_shift
  | Concat _ ->
    true
  | Input | Constant _ | Matmul | Conv2d _ | Depthwise_conv2d _ | Pool2d _
  | Global_avg_pool | Softmax | Layernorm _ | Im2col _ | Embedding ->
    false

(* Node ids are dense (node [i] is the [i]-th appended, after its
   inputs), so the passes' per-node tables are arrays indexed by id.

   [rebuild g copy] rebuilds [g] node by node, in id order: [copy g' map_id
   n] appends what replaces [n] to [g'] and returns its id (or [-1] to drop
   [n]; nothing kept may read it), [map_id] maps an id of [g] to its copy. *)
let rebuild g copy =
  let g' = Graph.create () in
  Graph.name g' (Graph.get_name g);
  let remap = Array.make (Graph.num_nodes g) (-1) in
  let map_id = Array.get remap in
  List.iter
    (fun (n : Graph.node) -> remap.(n.Graph.id) <- copy g' map_id n)
    (Graph.nodes g);
  Graph.set_outputs g' (List.map map_id (Graph.outputs g));
  g'

(* [n] unchanged; constants share their lazy thunk with [g]. *)
let copy_node g' map_id (n : Graph.node) =
  match n.Graph.op with
  | Op.Input -> Graph.input g' n.Graph.shape
  | Op.Constant { value } -> Graph.constant_lazy g' n.Graph.shape value
  | op -> Graph.add_op g' op (List.map map_id n.Graph.inputs)

let constant_fold g =
  (* folded.(id): the lazy tensor of a constant or of a node that became
     one. A constant rebuilds from its own thunk, as it would unfolded. *)
  let folded : Tensor.t Lazy.t option array =
    Array.make (Graph.num_nodes g) None
  in
  List.iter
    (fun (n : Graph.node) ->
      match n.Graph.op with
      | Op.Constant { value } -> folded.(n.Graph.id) <- Some value
      | op when foldable op && n.Graph.inputs <> [] ->
        if List.for_all (fun i -> Option.is_some folded.(i)) n.Graph.inputs then
          let inputs = List.map (fun i -> Option.get folded.(i)) n.Graph.inputs in
          folded.(n.Graph.id) <-
            Some (lazy (Op.eval op (List.map Lazy.force inputs)))
      | _ -> ())
    (Graph.nodes g);
  rebuild g (fun g' map_id n ->
      match folded.(n.Graph.id) with
      | Some value -> Graph.constant_lazy g' n.Graph.shape value
      | None -> copy_node g' map_id n)

let dead_code_elim g =
  (* Inputs precede their consumers, so one sweep down the ids marks
     everything the outputs reach. *)
  let live = Array.make (Graph.num_nodes g) false in
  List.iter (fun id -> live.(id) <- true) (Graph.outputs g);
  for id = Graph.num_nodes g - 1 downto 0 do
    if live.(id) then
      List.iter (fun i -> live.(i) <- true) (Graph.node g id).Graph.inputs
  done;
  rebuild g (fun g' map_id n ->
      if live.(n.Graph.id) then copy_node g' map_id n else -1)

let optimize g = dead_code_elim (constant_fold g)

type group = {
  anchor : int;
  prologues : int list;
  epilogues : int list;
  output : int;
}

let is_source (n : Graph.node) =
  match n.Graph.op with Op.Input | Op.Constant _ -> true | _ -> false

let partition g =
  (* assigned.(id): the node is a source or in a finished group;
     member.(id) = a: it is in the group of anchor [a] being built. *)
  let assigned = Array.make (Graph.num_nodes g) false in
  let member = Array.make (Graph.num_nodes g) (-1) in
  let topo = Graph.nodes g in
  List.iter
    (fun (n : Graph.node) -> if is_source n then assigned.(n.Graph.id) <- true)
    topo;
  let in_shapes_of (n : Graph.node) =
    List.map (Graph.node_shape g) n.Graph.inputs
  in
  let build_group (anchor : Graph.node) =
    let a = anchor.Graph.id in
    let is_member id = member.(id) = a in
    member.(a) <- a;
    (* Absorb injective producers whose every consumer is inside the group. *)
    let prologues = ref [] in
    let rec absorb nid =
      List.iter
        (fun p ->
          let pn = Graph.node g p in
          if
            (not assigned.(p))
            && (not (is_member p))
            && (not (is_source pn))
            && Op.is_injective pn.Graph.op (in_shapes_of pn)
            && (not (Op.is_anchor pn.Graph.op))
            && List.for_all is_member (Graph.consumers g p)
          then begin
            member.(p) <- a;
            prologues := p :: !prologues;
            absorb p
          end)
        (Graph.node g nid).Graph.inputs
    in
    absorb anchor.Graph.id;
    (* Absorb the bijective single-consumer epilogue chain. *)
    let epilogues = ref [] in
    let output = ref anchor.Graph.id in
    let continue_ = ref true in
    while !continue_ do
      match Graph.consumers g !output with
      | [ c ] ->
        let cn = Graph.node g c in
        if
          (not assigned.(c))
          && Op.is_bijective cn.Graph.op (in_shapes_of cn)
          && (not (Op.is_anchor cn.Graph.op))
          && List.hd cn.Graph.inputs = !output
          && (not (List.mem !output (Graph.outputs g)))
        then begin
          member.(c) <- a;
          epilogues := c :: !epilogues;
          output := c
        end
        else continue_ := false
      | _ -> continue_ := false
    done;
    let mark id = assigned.(id) <- true in
    mark a;
    List.iter mark !prologues;
    List.iter mark !epilogues;
    {
      anchor = a;
      prologues = List.sort compare !prologues;
      epilogues = List.rev !epilogues;
      output = !output;
    }
  in
  (* First pass: anchor-rooted groups. Second pass: leftover chains. *)
  let groups = ref [] in
  List.iter
    (fun (n : Graph.node) ->
      if (not assigned.(n.Graph.id)) && Op.is_anchor n.Graph.op then
        groups := build_group n :: !groups)
    topo;
  List.iter
    (fun (n : Graph.node) ->
      if not assigned.(n.Graph.id) then
        groups := build_group n :: !groups)
    topo;
  List.sort (fun a b -> compare a.output b.output) !groups

(* Lowering of convolutions to implicit-GEMM form (paper section 5.2):
   conv2d(x, w) => reshape(matmul(reshape(w), im2col(x))). The weight
   reshape constant-folds; im2col and the output reshape fuse into the
   scheduled GEMM. Depthwise convolutions are left untouched. *)
let lower_conv_to_gemm g =
  rebuild g (fun g' map_id n ->
      match (n.Graph.op, n.Graph.inputs) with
      | Op.Conv2d { stride; pad_h; pad_w }, [ x; w ] -> (
        let x_shape = Graph.node_shape g x and w_shape = Graph.node_shape g w in
        match (x_shape, w_shape, n.Graph.shape) with
        | [ nb; c; _; _ ], [ oc; _; kh; kw ], [ _; _; oh; ow ] ->
          let w_mat = Graph.reshape g' (map_id w) [ oc; c * kh * kw ] in
          let cols =
            Graph.add_op g'
              (Op.Im2col { kh; kw; stride; pad_h; pad_w })
              [ map_id x ]
          in
          let mm = Graph.matmul g' w_mat cols in
          Graph.reshape g' mm [ nb; oc; oh; ow ]
        | _ -> assert false)
      | _ -> copy_node g' map_id n)

(* Extract a subset of compute nodes as a standalone graph. Values flowing
   into the subset from outside (graph inputs or non-member compute nodes)
   become Input stubs, recorded in [feeds] in first-use order; constants
   consumed by members are recreated inside the extraction (sharing the
   lazy thunk with the source graph, like [rebatch]). The shard planner
   uses this to carve pipeline stages and the pre/part/post split of
   tensor parallelism out of a single-device graph. *)
type extraction = {
  sub : Graph.t;
  feeds : int list;  (* original ids bound, in order, to [sub]'s inputs *)
  yields : int list;  (* original ids exposed, in order, as [sub]'s outputs *)
}

let extract g ~nodes ~outputs =
  let member = Array.make (Graph.num_nodes g) false in
  List.iter
    (fun id ->
      match (Graph.node g id).Graph.op with
      | Op.Input | Op.Constant _ ->
        invalid_arg "Passes.extract: members must be compute nodes"
      | _ -> member.(id) <- true)
    nodes;
  let sub = Graph.create () in
  Graph.name sub (Graph.get_name g ^ "_sub");
  (* remap.(id): the id in [sub] of a member, feed or constant, or -1. *)
  let remap = Array.make (Graph.num_nodes g) (-1) in
  let feeds = ref [] in
  let operand p =
    if remap.(p) < 0 then begin
      let pn = Graph.node g p in
      remap.(p) <-
        (match pn.Graph.op with
        | Op.Constant { value } -> Graph.constant_lazy sub pn.Graph.shape value
        | _ ->
          feeds := p :: !feeds;
          Graph.input sub pn.Graph.shape)
    end;
    remap.(p)
  in
  List.iter
    (fun (n : Graph.node) ->
      if member.(n.Graph.id) then
        remap.(n.Graph.id) <-
          Graph.add_op sub n.Graph.op (List.map operand n.Graph.inputs))
    (Graph.nodes g);
  let yields =
    List.map
      (fun id ->
        if id < 0 || id >= Graph.num_nodes g || not member.(id) then
          invalid_arg "Passes.extract: outputs must be member nodes";
        id)
      outputs
  in
  Graph.set_outputs sub (List.map (Array.get remap) yields);
  { sub; feeds = List.rev !feeds; yields }

(* Rebind the leading (batch) dimension of a graph. Used by the serving
   registry to derive batch-bucket variants of models that were not built
   through a [?batch]-parameterized builder (HGF files, tiny test models).
   Shapes of interior nodes are re-inferred from the rebound inputs; the
   only ops carrying literal shapes are [Input] and [Reshape], whose
   leading dims scale by [batch / old_batch] (a [-1] wildcard is left to
   the inference). Constants (weights) are batch-independent and shared
   with the source graph — including their lazy thunks, which is why
   [Plan]'s constant forcing is lock-protected. *)
let rebatch g batch =
  if batch < 1 then invalid_arg "Passes.rebatch: batch must be >= 1";
  let old_batch =
    match Graph.input_ids g with
    | [] -> invalid_arg "Passes.rebatch: graph has no inputs"
    | id :: _ -> (
      match Graph.node_shape g id with
      | b :: _ -> b
      | [] -> invalid_arg "Passes.rebatch: rank-0 input")
  in
  let scale what d =
    if d = -1 then d
    else if d mod old_batch <> 0 then
      invalid_arg
        (Printf.sprintf
           "Passes.rebatch: %s leading dim %d not divisible by batch %d" what d
           old_batch)
    else d / old_batch * batch
  in
  let rescale what = function
    | d :: rest -> scale what d :: rest
    | [] -> invalid_arg "Passes.rebatch: rank-0 shape"
  in
  rebuild g (fun g' map_id n ->
      match n.Graph.op with
      | Op.Input -> Graph.input g' (rescale "input" n.Graph.shape)
      | Op.Reshape dims ->
        Graph.add_op g'
          (Op.Reshape (rescale "reshape" dims))
          (List.map map_id n.Graph.inputs)
      | _ -> copy_node g' map_id n)
