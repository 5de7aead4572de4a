module Tensor = Hidet_tensor.Tensor

let foldable (op : Op.t) =
  match op with
  | Op.Reshape _ | Transpose _ | Unary _ | Binary _ | Bias_add | Scale_shift
  | Concat _ ->
    true
  | Input | Constant _ | Matmul | Conv2d _ | Depthwise_conv2d _ | Pool2d _
  | Global_avg_pool | Softmax | Layernorm _ | Im2col _ | Embedding ->
    false

let rebuild g ~keep ~fold_value =
  (* Rebuild the graph; [keep id] decides whether a node survives as-is,
     [fold_value id] supplies the lazy constant replacing a folded node. *)
  let g' = Graph.create () in
  Graph.name g' (Graph.get_name g);
  let remap = Hashtbl.create 64 in
  List.iter
    (fun (n : Graph.node) ->
      if keep n.Graph.id then begin
        let new_id =
          match fold_value n.Graph.id with
          | Some value -> Graph.constant_lazy g' n.Graph.shape value
          | None -> (
            match n.Graph.op with
            | Op.Input -> Graph.input g' n.Graph.shape
            | Op.Constant { value } -> Graph.constant_lazy g' n.Graph.shape value
            | op ->
              Graph.add_op g' op
                (List.map (Hashtbl.find remap) n.Graph.inputs))
        in
        Hashtbl.replace remap n.Graph.id new_id
      end)
    (Graph.nodes g);
  Graph.set_outputs g' (List.map (Hashtbl.find remap) (Graph.outputs g));
  g'

let constant_fold g =
  (* folded : id -> lazy tensor, for nodes that became constants. *)
  let folded : (int, Tensor.t Lazy.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (n : Graph.node) ->
      match n.Graph.op with
      | Op.Constant { value } -> Hashtbl.replace folded n.Graph.id value
      | op when foldable op && n.Graph.inputs <> [] ->
        let inputs_folded =
          List.filter_map (Hashtbl.find_opt folded) n.Graph.inputs
        in
        if List.length inputs_folded = List.length n.Graph.inputs then
          Hashtbl.replace folded n.Graph.id
            (lazy (Op.eval op (List.map Lazy.force inputs_folded)))
      | _ -> ())
    (Graph.nodes g);
  rebuild g
    ~keep:(fun _ -> true)
    ~fold_value:(fun id ->
      match Graph.node g id with
      | { Graph.op = Op.Constant _; _ } -> None
      | _ -> Hashtbl.find_opt folded id)

let dead_code_elim g =
  let live = Hashtbl.create 64 in
  let rec mark id =
    if not (Hashtbl.mem live id) then begin
      Hashtbl.replace live id ();
      List.iter mark (Graph.node g id).Graph.inputs
    end
  in
  List.iter mark (Graph.outputs g);
  rebuild g ~keep:(Hashtbl.mem live) ~fold_value:(fun _ -> None)

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
  let assigned = Hashtbl.create 64 in
  let topo = Graph.nodes g in
  List.iter
    (fun (n : Graph.node) -> if is_source n then Hashtbl.replace assigned n.Graph.id ())
    topo;
  let in_shapes_of (n : Graph.node) =
    List.map (Graph.node_shape g) n.Graph.inputs
  in
  let build_group (anchor : Graph.node) =
    let members = Hashtbl.create 8 in
    Hashtbl.replace members anchor.Graph.id ();
    (* Absorb injective producers whose every consumer is inside the group. *)
    let prologues = ref [] in
    let rec absorb nid =
      List.iter
        (fun p ->
          let pn = Graph.node g p in
          if
            (not (Hashtbl.mem assigned p))
            && (not (Hashtbl.mem members p))
            && (not (is_source pn))
            && Op.is_injective pn.Graph.op (in_shapes_of pn)
            && (not (Op.is_anchor pn.Graph.op))
            && List.for_all (Hashtbl.mem members) (Graph.consumers g p)
          then begin
            Hashtbl.replace members p ();
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
          (not (Hashtbl.mem assigned c))
          && Op.is_bijective cn.Graph.op (in_shapes_of cn)
          && (not (Op.is_anchor cn.Graph.op))
          && List.hd cn.Graph.inputs = !output
          && (not (List.mem !output (Graph.outputs g)))
        then begin
          Hashtbl.replace members c ();
          epilogues := c :: !epilogues;
          output := c
        end
        else continue_ := false
      | _ -> continue_ := false
    done;
    Hashtbl.iter (fun id () -> Hashtbl.replace assigned id ()) members;
    {
      anchor = anchor.Graph.id;
      prologues = List.sort compare !prologues;
      epilogues = List.rev !epilogues;
      output = !output;
    }
  in
  (* First pass: anchor-rooted groups. Second pass: leftover chains. *)
  let groups = ref [] in
  List.iter
    (fun (n : Graph.node) ->
      if (not (Hashtbl.mem assigned n.Graph.id)) && Op.is_anchor n.Graph.op then
        groups := build_group n :: !groups)
    topo;
  List.iter
    (fun (n : Graph.node) ->
      if not (Hashtbl.mem assigned n.Graph.id) then
        groups := build_group n :: !groups)
    topo;
  List.sort (fun a b -> compare a.output b.output) !groups

(* Lowering of convolutions to implicit-GEMM form (paper section 5.2):
   conv2d(x, w) => reshape(matmul(reshape(w), im2col(x))). The weight
   reshape constant-folds; im2col and the output reshape fuse into the
   scheduled GEMM. Depthwise convolutions are left untouched. *)
let lower_conv_to_gemm g =
  let g' = Graph.create () in
  Graph.name g' (Graph.get_name g);
  let remap = Hashtbl.create 64 in
  let map_id id = Hashtbl.find remap id in
  List.iter
    (fun (n : Graph.node) ->
      let new_id =
        match (n.Graph.op, n.Graph.inputs) with
        | Op.Input, _ -> Graph.input g' n.Graph.shape
        | Op.Constant { value }, _ -> Graph.constant_lazy g' n.Graph.shape value
        | Op.Conv2d { stride; pad_h; pad_w }, [ x; w ] ->
          let x_shape = Graph.node_shape g x and w_shape = Graph.node_shape g w in
          (match (x_shape, w_shape, n.Graph.shape) with
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
        | op, inputs -> Graph.add_op g' op (List.map map_id inputs)
      in
      Hashtbl.replace remap n.Graph.id new_id)
    (Graph.nodes g);
  Graph.set_outputs g' (List.map map_id (Graph.outputs g));
  g'

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
  let members = Hashtbl.create 16 in
  List.iter
    (fun id ->
      match (Graph.node g id).Graph.op with
      | Op.Input | Op.Constant _ ->
        invalid_arg "Passes.extract: members must be compute nodes"
      | _ -> Hashtbl.replace members id ())
    nodes;
  let sub = Graph.create () in
  Graph.name sub (Graph.get_name g ^ "_sub");
  let remap = Hashtbl.create 16 in
  let feeds = ref [] in
  let feed_of id shape =
    match Hashtbl.find_opt remap id with
    | Some nid -> nid
    | None ->
      let nid = Graph.input sub shape in
      Hashtbl.replace remap id nid;
      feeds := id :: !feeds;
      nid
  in
  List.iter
    (fun (n : Graph.node) ->
      if Hashtbl.mem members n.Graph.id then begin
        let ins =
          List.map
            (fun p ->
              match Hashtbl.find_opt remap p with
              | Some nid -> nid
              | None -> (
                let pn = Graph.node g p in
                match pn.Graph.op with
                | Op.Constant { value } ->
                  let nid = Graph.constant_lazy sub pn.Graph.shape value in
                  Hashtbl.replace remap p nid;
                  nid
                | _ -> feed_of p pn.Graph.shape))
            n.Graph.inputs
        in
        Hashtbl.replace remap n.Graph.id (Graph.add_op sub n.Graph.op ins)
      end)
    (Graph.nodes g);
  let yields =
    List.map
      (fun id ->
        if not (Hashtbl.mem members id) then
          invalid_arg "Passes.extract: outputs must be member nodes";
        id)
      outputs
  in
  Graph.set_outputs sub (List.map (Hashtbl.find remap) yields);
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
  let g' = Graph.create () in
  Graph.name g' (Graph.get_name g);
  let remap = Hashtbl.create 64 in
  let map_id id = Hashtbl.find remap id in
  List.iter
    (fun (n : Graph.node) ->
      let new_id =
        match n.Graph.op with
        | Op.Input -> Graph.input g' (rescale "input" n.Graph.shape)
        | Op.Constant { value } -> Graph.constant_lazy g' n.Graph.shape value
        | Op.Reshape dims ->
          Graph.add_op g'
            (Op.Reshape (rescale "reshape" dims))
            (List.map map_id n.Graph.inputs)
        | op -> Graph.add_op g' op (List.map map_id n.Graph.inputs)
      in
      Hashtbl.replace remap n.Graph.id new_id)
    (Graph.nodes g);
  Graph.set_outputs g' (List.map map_id (Graph.outputs g));
  g'
