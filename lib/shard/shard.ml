module G = Hidet_graph.Graph
module Op = Hidet_graph.Op
module Passes = Hidet_graph.Passes
module T = Hidet_tensor.Tensor
module Plan = Hidet_runtime.Plan
module Cluster = Hidet_gpu.Cluster
module HE = Hidet.Hidet_engine
module Trace = Hidet_obs.Trace

type tensor_mode = Gather | Reduce

type strategy =
  | Data
  | Tensor of tensor_mode
  | Pipeline of { microbatches : int }

let strategy_to_string = function
  | Data -> "data"
  | Tensor Gather -> "tensor-gather"
  | Tensor Reduce -> "tensor-reduce"
  | Pipeline { microbatches } -> Printf.sprintf "pipeline:%d" microbatches

let strategy_of_string ?(microbatches = 4) s =
  match String.lowercase_ascii s with
  | "data" -> Some Data
  | "tensor" | "tensor-gather" -> Some (Tensor Gather)
  | "tensor-reduce" -> Some (Tensor Reduce)
  | "pipeline" -> Some (Pipeline { microbatches })
  | _ -> None

let bit_exact = function Tensor Reduce -> false | _ -> true

type stage_exec = {
  stage : int;
  micro : int;
  device : int;
  start : float;
  finish : float;
}

let pipeline_schedule ~latency ~xfer ~stages ~micros =
  if stages < 1 || micros < 1 then
    invalid_arg "Shard.pipeline_schedule: stages and micros must be >= 1";
  let finish = Array.make_matrix stages micros 0. in
  let records = ref [] in
  for s = 0 to stages - 1 do
    for m = 0 to micros - 1 do
      let ready_up =
        if s = 0 then 0. else finish.(s - 1).(m) +. xfer ~stage:s ~micro:m
      in
      let ready_here = if m = 0 then 0. else finish.(s).(m - 1) in
      let start = Float.max ready_up ready_here in
      let f = start +. latency ~stage:s ~micro:m in
      finish.(s).(m) <- f;
      records :=
        { stage = s; micro = m; device = s; start; finish = f } :: !records
    done
  done;
  (List.rev !records, finish.(stages - 1).(micros - 1))

type estimate = {
  devices : int;
  compute : float;
  comm : float;
  total : float;
  baseline : float;
  speedup : float;
  per_device : float array;
}

(* A compiled per-device fragment. [feeds]/[yields] are node positions
   (indices into the source graph's topological node list), so they name
   the same logical value across rebatched graph variants, whose node ids
   need not coincide with the source graph's. *)
type frag = {
  dev : int;
  graph : G.t;
  plan : Plan.t;
  latency : float;
  feeds : int list;
  yields : int list;
}

type tensor_exec = {
  mode : tensor_mode;
  anchor : int;  (** anchor matmul position *)
  a : int;  (** activation position *)
  a_const : T.t option;  (** forced at plan time if the activation is a leaf constant *)
  pre : frag option;
  parts : frag array;  (** one per device; inputs: activation [, weight slice] *)
  w_feed : int option;  (** weight position when the weight is a graph input *)
  splits : (int * int) array;  (** (start, len) along the split axis per device *)
  split_extent : int;
  k : int;  (** contraction extent, for the ULP budget *)
  post : frag option;
  const_outs : (int * T.t) list;  (** output positions that are constants *)
}

type pipeline_exec = {
  micro_sizes : int array;
  class_of : int array;  (** micro index -> size-class index *)
  stage_frags : frag array array;  (** [stage_frags.(s).(class)] *)
  xfer_bytes : float array array;  (** [(s).(class)]: bytes entering stage s *)
  out_bytes : float array;  (** per class: bytes of the graph outputs *)
}

type exec =
  | E_data of { frags : frag array; sizes : int array }
  | E_tensor of tensor_exec
  | E_pipeline of pipeline_exec

type t = {
  cluster : Cluster.t;
  strat : strategy;
  source : G.t;
  base_plan : Plan.t;
  base_result : Hidet_runtime.Engine.result;
  exec : exec;
}

let strategy t = t.strat
let cluster t = t.cluster
let baseline t = t.base_plan
let baseline_result t = t.base_result
let base_latency t = t.base_result.Hidet_runtime.Engine.latency

(* --- shared helpers --------------------------------------------------------- *)

let fp32_bytes shape = 4.0 *. float_of_int (List.fold_left ( * ) 1 shape)

let positions g = Array.of_list (G.nodes g)

let pos_table (nodes : G.node array) =
  let h = Hashtbl.create (max 8 (Array.length nodes)) in
  Array.iteri (fun i n -> Hashtbl.replace h n.G.id i) nodes;
  h

let is_leaf (n : G.node) =
  match n.G.op with Op.Input | Op.Constant _ -> true | _ -> false

let compile_frag ~options ~cluster ~dev g ~feeds ~yields =
  let plan, result = HE.compile_plan ~options (Cluster.device cluster dev) g in
  {
    dev;
    graph = g;
    plan;
    latency = result.Hidet_runtime.Engine.latency;
    feeds;
    yields;
  }

let run_frag ?backend frag args =
  Plan.run ?backend frag.plan (List.combine (G.input_ids frag.graph) args)

(* Member ids whose values escape the member set: consumed by a
   non-member, or listed as graph outputs. In topological order. *)
let escaping_ids g (nodes : G.node array) member_tbl =
  let outs = G.outputs g in
  Array.to_list nodes
  |> List.filter_map (fun (n : G.node) ->
         if
           Hashtbl.mem member_tbl n.G.id
           && (List.mem n.G.id outs
              || List.exists
                   (fun c -> not (Hashtbl.mem member_tbl c))
                   (G.consumers g n.G.id))
         then Some n.G.id
         else None)

let member_tbl ids =
  let h = Hashtbl.create (max 8 (List.length ids)) in
  List.iter (fun id -> Hashtbl.replace h id ()) ids;
  h

(* --- data parallelism ------------------------------------------------------- *)

let leading_rows g =
  match G.input_ids g with
  | [] -> invalid_arg "shard: graph has no inputs"
  | id :: _ -> (
    match G.node_shape g id with
    | d :: _ -> d
    | [] -> invalid_arg "shard: scalar graph input")

let plan_data ~options ~cluster g =
  (match Batch_split.check g with
  | Ok () -> ()
  | Error e -> invalid_arg ("shard: data parallelism: " ^ e));
  let rows = leading_rows g in
  let sizes = Batch_split.split_sizes ~rows ~parts:(Cluster.size cluster) in
  let frags =
    Array.mapi
      (fun d b ->
        let gd = Passes.rebatch g b in
        compile_frag ~options ~cluster ~dev:d gd ~feeds:[] ~yields:[])
      sizes
  in
  E_data { frags; sizes }

(* Slice every input proportionally along its leading dim: an input whose
   leading dim is [c * total_rows] contributes [c * len] rows per shard
   (mirroring how [Passes.rebatch] rescales leading dims). *)
let slice_inputs_for tensors ~total ~start ~len =
  List.map
    (fun t ->
      let d0 = match T.shape t with d :: _ -> d | [] -> 1 in
      if d0 mod total <> 0 then
        invalid_arg
          (Printf.sprintf "shard: input leading dim %d not a multiple of %d"
             d0 total);
      let unit = d0 / total in
      Batch_split.slice_rows t ~start:(unit * start) ~len:(unit * len))
    tensors

let prefix_starts sizes =
  let starts = Array.make (Array.length sizes) 0 in
  for i = 1 to Array.length sizes - 1 do
    starts.(i) <- starts.(i - 1) + sizes.(i - 1)
  done;
  starts

let concat_rows_of per_shard =
  match per_shard with
  | [] -> []
  | first :: _ ->
    List.mapi
      (fun i _ ->
        T.concat (List.map (fun outs -> List.nth outs i) per_shard) ~axis:0)
      first

let run_data ?backend frags sizes inputs =
  let total = Array.fold_left ( + ) 0 sizes in
  let starts = prefix_starts sizes in
  let per_dev =
    Array.to_list
      (Array.mapi
         (fun d frag ->
           run_frag ?backend frag
             (slice_inputs_for inputs ~total ~start:starts.(d) ~len:sizes.(d)))
         frags)
  in
  concat_rows_of per_dev

(* --- tensor parallelism ----------------------------------------------------- *)

(* The dominant sliceable matmul: rank-2 leaf weight (Input or Constant)
   with enough extent along the split axis for one slab per device. *)
let find_anchor (nodes : G.node array) pos_of ~mode ~devices =
  let best = ref None in
  Array.iteri
    (fun pos (n : G.node) ->
      match (n.G.op, n.G.inputs) with
      | Op.Matmul, [ a; w ] -> (
        let wn = nodes.(Hashtbl.find pos_of w) in
        match (is_leaf wn, wn.G.shape) with
        | true, [ wk; wcols ] ->
          let extent = match mode with Gather -> wcols | Reduce -> wk in
          if extent >= devices then begin
            let fl =
              float_of_int (List.fold_left ( * ) 1 n.G.shape)
              *. float_of_int wk
            in
            match !best with
            | Some (_, _, _, best_fl) when best_fl >= fl -> ()
            | _ -> best := Some (pos, a, w, fl)
          end
        | _ -> ())
      | _ -> ())
    nodes;
  !best

let compute_ancestors (nodes : G.node array) pos_of root_id =
  let seen = Hashtbl.create 16 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter go nodes.(Hashtbl.find pos_of id).G.inputs
    end
  in
  go root_id;
  Hashtbl.fold
    (fun id () acc ->
      if is_leaf nodes.(Hashtbl.find pos_of id) then acc else id :: acc)
    seen []
  |> List.sort compare

let forced_const (nodes : G.node array) pos_of id =
  match nodes.(Hashtbl.find pos_of id).G.op with
  | Op.Constant { value } -> Some (Lazy.force value)
  | _ -> None

let plan_tensor ~options ~cluster ~mode g =
  let devices = Cluster.size cluster in
  let nodes = positions g in
  let pos_of = pos_table nodes in
  let anchor_pos, a_id, w_id, _ =
    match find_anchor nodes pos_of ~mode ~devices with
    | Some x -> x
    | None ->
      invalid_arg
        (Printf.sprintf
           "shard: tensor parallelism: no matmul with a rank-2 leaf weight \
            offering >= %d %s extent" devices
           (match mode with Gather -> "output" | Reduce -> "reduction"))
  in
  let anchor_id = nodes.(anchor_pos).G.id in
  let wk, wcols =
    match G.node_shape g w_id with [ k; n ] -> (k, n) | _ -> assert false
  in
  let split_extent = match mode with Gather -> wcols | Reduce -> wk in
  let lens = Batch_split.split_sizes ~rows:split_extent ~parts:devices in
  let splits =
    let start = ref 0 in
    Array.map
      (fun len ->
        let s = !start in
        start := s + len;
        (s, len))
      lens
  in
  let a_shape = G.node_shape g a_id in
  let a_node = nodes.(Hashtbl.find pos_of a_id) in
  let pre_members = compute_ancestors nodes pos_of a_id in
  let pre =
    if pre_members = [] then None
    else begin
      let tbl = member_tbl pre_members in
      let yields = escaping_ids g nodes tbl in
      let ex = Passes.extract g ~nodes:pre_members ~outputs:yields in
      Some
        (compile_frag ~options ~cluster ~dev:0 ex.Passes.sub
           ~feeds:(List.map (Hashtbl.find pos_of) ex.Passes.feeds)
           ~yields:(List.map (Hashtbl.find pos_of) ex.Passes.yields))
    end
  in
  (* Host-side constants are forced now (planning is single-threaded), so
     [run] never touches the shared lazy thunks from worker domains. *)
  let a_const = if is_leaf a_node then forced_const nodes pos_of a_id else None in
  let w_const = forced_const nodes pos_of w_id in
  let w_is_input =
    match nodes.(Hashtbl.find pos_of w_id).G.op with
    | Op.Input -> true
    | _ -> false
  in
  let parts =
    Array.mapi
      (fun d (start, len) ->
        let pg = G.create () in
        G.name pg (Printf.sprintf "%s.part%d" (G.get_name g) d);
        let a_shape_d =
          match mode with
          | Gather -> a_shape
          | Reduce ->
            let r = List.length a_shape in
            List.mapi (fun i x -> if i = r - 1 then len else x) a_shape
        in
        let a_in = G.input pg a_shape_d in
        let w_nd =
          match w_const with
          | Some w ->
            let axis = match mode with Gather -> 1 | Reduce -> 0 in
            G.constant pg (Batch_split.slice_axis w ~axis ~start ~len)
          | None ->
            let w_shape_d =
              match mode with Gather -> [ wk; len ] | Reduce -> [ len; wcols ]
            in
            G.input pg w_shape_d
        in
        let mm = G.matmul pg a_in w_nd in
        G.set_outputs pg [ mm ];
        compile_frag ~options ~cluster ~dev:d pg ~feeds:[] ~yields:[])
      splits
  in
  let pre_tbl = member_tbl pre_members in
  let post_members =
    Array.to_list nodes
    |> List.filter_map (fun (n : G.node) ->
           if is_leaf n || n.G.id = anchor_id || Hashtbl.mem pre_tbl n.G.id
           then None
           else Some n.G.id)
  in
  let post =
    if post_members = [] then None
    else begin
      let tbl = member_tbl post_members in
      let yields = escaping_ids g nodes tbl in
      let ex = Passes.extract g ~nodes:post_members ~outputs:yields in
      Some
        (compile_frag ~options ~cluster ~dev:0 ex.Passes.sub
           ~feeds:(List.map (Hashtbl.find pos_of) ex.Passes.feeds)
           ~yields:(List.map (Hashtbl.find pos_of) ex.Passes.yields))
    end
  in
  let const_outs =
    List.filter_map
      (fun o ->
        match forced_const nodes pos_of o with
        | Some v -> Some (Hashtbl.find pos_of o, v)
        | None -> None)
      (G.outputs g)
  in
  E_tensor
    {
      mode;
      anchor = anchor_pos;
      a = Hashtbl.find pos_of a_id;
      a_const;
      pre;
      parts;
      w_feed = (if w_is_input then Some (Hashtbl.find pos_of w_id) else None);
      splits;
      split_extent;
      k = wk;
      post;
      const_outs;
    }

let run_tensor ?backend t (e : tensor_exec) inputs =
  let nodes = positions t.source in
  let pos_of = pos_table nodes in
  let env = Hashtbl.create 32 in
  List.iter2
    (fun id tns -> Hashtbl.replace env (Hashtbl.find pos_of id) tns)
    (G.input_ids t.source) inputs;
  List.iter (fun (p, v) -> Hashtbl.replace env p v) e.const_outs;
  let run_sub frag =
    let args = List.map (Hashtbl.find env) frag.feeds in
    List.iter2 (Hashtbl.replace env) frag.yields (run_frag ?backend frag args)
  in
  Option.iter run_sub e.pre;
  let a = match e.a_const with Some v -> v | None -> Hashtbl.find env e.a in
  let w = Option.map (Hashtbl.find env) e.w_feed in
  let part_outs =
    Array.to_list
      (Array.mapi
         (fun d (start, len) ->
           let a_d =
             match e.mode with
             | Gather -> a
             | Reduce ->
               let axis = List.length (T.shape a) - 1 in
               Batch_split.slice_axis a ~axis ~start ~len
           in
           let args =
             match w with
             | None -> [ a_d ]
             | Some w ->
               let axis = match e.mode with Gather -> 1 | Reduce -> 0 in
               [ a_d; Batch_split.slice_axis w ~axis ~start ~len ]
           in
           match run_frag ?backend e.parts.(d) args with
           | [ o ] -> o
           | _ -> failwith "shard: tensor part produced multiple outputs")
         e.splits)
  in
  let anchor_val =
    match (e.mode, part_outs) with
    | _, [] -> assert false
    | Gather, o :: _ -> T.concat part_outs ~axis:(List.length (T.shape o) - 1)
    | Reduce, o :: rest -> List.fold_left T.add o rest
  in
  Hashtbl.replace env e.anchor anchor_val;
  Option.iter run_sub e.post;
  List.map
    (fun o -> Hashtbl.find env (Hashtbl.find pos_of o))
    (G.outputs t.source)

(* --- pipeline parallelism --------------------------------------------------- *)

(* Contiguous, flops-balanced stage assignment over the compute nodes of
   [g], in topological order. Every stage gets at least one node. *)
let stage_assignment g (nodes : G.node array) ~stages =
  let compute =
    Array.of_list (List.filter (fun n -> not (is_leaf n)) (Array.to_list nodes))
  in
  let n = Array.length compute in
  if n < stages then
    invalid_arg
      (Printf.sprintf
         "shard: pipeline: %d compute nodes cannot fill %d stages" n stages);
  let cost (nd : G.node) =
    let out = float_of_int (List.fold_left ( * ) 1 nd.G.shape) in
    let fl =
      match (nd.G.op, nd.G.inputs) with
      | Op.Matmul, [ a; _ ] -> (
        match List.rev (G.node_shape g a) with
        | k :: _ -> out *. float_of_int k
        | [] -> out)
      | _ -> out
    in
    Float.max fl 1.
  in
  let total = Array.fold_left (fun acc nd -> acc +. cost nd) 0. compute in
  let members = Array.make stages [] in
  let s = ref 0 and acc = ref 0. in
  Array.iteri
    (fun i nd ->
      let remaining_nodes = n - i in
      (* close the stage once it met its cumulative share — but never
         early enough to starve the remaining stages of a node each *)
      if
        !s < stages - 1
        && members.(!s) <> []
        && (!acc *. float_of_int stages >= total *. float_of_int (!s + 1)
           || remaining_nodes <= stages - !s - 1 + 1)
      then incr s;
      members.(!s) <- nd :: members.(!s);
      acc := !acc +. cost nd)
    compute;
  Array.map List.rev members

let plan_pipeline ~options ~cluster ~microbatches g =
  (match Batch_split.check g with
  | Ok () -> ()
  | Error e -> invalid_arg ("shard: pipeline: " ^ e));
  if microbatches < 1 then invalid_arg "shard: pipeline: microbatches < 1";
  let stages_n = Cluster.size cluster in
  let rows = leading_rows g in
  let micro_sizes = Batch_split.split_sizes ~rows ~parts:microbatches in
  let nodes = positions g in
  let pos_of = pos_table nodes in
  let stage_nodes = stage_assignment g nodes ~stages:stages_n in
  let stage_member_pos =
    Array.map
      (fun ms -> List.map (fun (n : G.node) -> Hashtbl.find pos_of n.G.id) ms)
      stage_nodes
  in
  let stage_out_pos =
    Array.map
      (fun ms ->
        let tbl = member_tbl (List.map (fun (n : G.node) -> n.G.id) ms) in
        List.map (Hashtbl.find pos_of) (escaping_ids g nodes tbl))
      stage_nodes
  in
  let classes =
    Array.of_list (List.sort_uniq compare (Array.to_list micro_sizes))
  in
  let class_of =
    Array.map
      (fun sz ->
        let rec idx i = if classes.(i) = sz then i else idx (i + 1) in
        idx 0)
      micro_sizes
  in
  (* one compiled stage chain per distinct microbatch size *)
  let per_class =
    Array.map
      (fun mb ->
        let gc = Passes.rebatch g mb in
        let cnodes = positions gc in
        let cpos = pos_table cnodes in
        let frags =
          Array.mapi
            (fun s member_pos ->
              let ids = List.map (fun p -> cnodes.(p).G.id) member_pos in
              let outs = List.map (fun p -> cnodes.(p).G.id) stage_out_pos.(s) in
              let ex = Passes.extract gc ~nodes:ids ~outputs:outs in
              compile_frag ~options ~cluster ~dev:s ex.Passes.sub
                ~feeds:(List.map (Hashtbl.find cpos) ex.Passes.feeds)
                ~yields:(List.map (Hashtbl.find cpos) ex.Passes.yields))
            stage_member_pos
        in
        let xfer =
          Array.mapi
            (fun s frag ->
              if s = 0 then 0.
              else
                List.fold_left
                  (fun acc p -> acc +. fp32_bytes cnodes.(p).G.shape)
                  0. frag.feeds)
            frags
        in
        let out_bytes =
          List.fold_left
            (fun acc o -> acc +. fp32_bytes (G.node_shape gc o))
            0. (G.outputs gc)
        in
        (frags, xfer, out_bytes))
      classes
  in
  E_pipeline
    {
      micro_sizes;
      class_of;
      stage_frags =
        Array.init stages_n (fun s ->
            Array.map (fun (frags, _, _) -> frags.(s)) per_class);
      xfer_bytes =
        Array.init stages_n (fun s ->
            Array.map (fun (_, xf, _) -> xf.(s)) per_class);
      out_bytes = Array.map (fun (_, _, ob) -> ob) per_class;
    }

let run_pipeline ?backend t (p : pipeline_exec) inputs =
  let nodes = positions t.source in
  let pos_of = pos_table nodes in
  let input_pos = List.map (Hashtbl.find pos_of) (G.input_ids t.source) in
  let out_pos = List.map (Hashtbl.find pos_of) (G.outputs t.source) in
  let total = Array.fold_left ( + ) 0 p.micro_sizes in
  let starts = prefix_starts p.micro_sizes in
  let per_micro =
    Array.to_list
      (Array.mapi
         (fun m sz ->
           let env = Hashtbl.create 32 in
           List.iter2 (Hashtbl.replace env) input_pos
             (slice_inputs_for inputs ~total ~start:starts.(m) ~len:sz);
           Array.iter
             (fun stage ->
               let frag = stage.(p.class_of.(m)) in
               let args = List.map (Hashtbl.find env) frag.feeds in
               List.iter2 (Hashtbl.replace env) frag.yields
                 (run_frag ?backend frag args))
             p.stage_frags;
           List.map (Hashtbl.find env) out_pos)
         p.micro_sizes)
  in
  concat_rows_of per_micro

(* --- public API ------------------------------------------------------------- *)

let default_options = { HE.default_options with HE.deterministic_reduce = true }

let compile_single ?(options = default_options) cluster g =
  let options = { options with HE.deterministic_reduce = true } in
  HE.compile_plan ~options (Cluster.device cluster 0) g

let plan ?(options = default_options) ?(strategy = Data) cluster g =
  (* The equivalence contract rests on reduction-order-canonical
     schedules on both sides; everything else in [options] is honored. *)
  let options = { options with HE.deterministic_reduce = true } in
  Trace.span
    ~attrs:(fun () ->
      [
        ("strategy", strategy_to_string strategy);
        ("cluster", cluster.Cluster.name);
        ("model", G.get_name g);
      ])
    "shard.plan"
    (fun _ ->
      let base_plan, base_result =
        HE.compile_plan ~options (Cluster.device cluster 0) g
      in
      let exec =
        match strategy with
        | Data -> plan_data ~options ~cluster g
        | Tensor mode -> plan_tensor ~options ~cluster ~mode g
        | Pipeline { microbatches } ->
          plan_pipeline ~options ~cluster ~microbatches g
      in
      { cluster; strat = strategy; source = g; base_plan; base_result; exec })

let out_bytes_total g =
  List.fold_left
    (fun acc o -> acc +. fp32_bytes (G.node_shape g o))
    0. (G.outputs g)

let pipeline_times t (p : pipeline_exec) =
  let latency ~stage ~micro =
    p.stage_frags.(stage).(p.class_of.(micro)).latency
  in
  let xfer ~stage ~micro =
    Cluster.p2p_time t.cluster ~bytes:p.xfer_bytes.(stage).(p.class_of.(micro))
  in
  pipeline_schedule ~latency ~xfer
    ~stages:(Array.length p.stage_frags)
    ~micros:(Array.length p.micro_sizes)

let estimate t =
  let n = Cluster.size t.cluster in
  match t.exec with
  | E_data { frags; _ } ->
    let per_device = Array.map (fun f -> f.latency) frags in
    let compute = Array.fold_left Float.max 0. per_device in
    let comm =
      Cluster.all_gather_time t.cluster ~bytes:(out_bytes_total t.source)
    in
    let total = compute +. comm in
    {
      devices = n;
      compute;
      comm;
      total;
      baseline = base_latency t;
      speedup = base_latency t /. total;
      per_device;
    }
  | E_tensor e ->
    let pre_l = match e.pre with Some f -> f.latency | None -> 0. in
    let post_l = match e.post with Some f -> f.latency | None -> 0. in
    let part_max =
      Array.fold_left (fun m f -> Float.max m f.latency) 0. e.parts
    in
    let nodes = positions t.source in
    let anchor_bytes = fp32_bytes nodes.(e.anchor).G.shape in
    let a_bytes = fp32_bytes (G.node_shape t.source (List.hd nodes.(e.anchor).G.inputs)) in
    (* activation broadcast (none needed when each device could have
       computed it, but the simulated runtime materializes on dev0) *)
    let bcast =
      if n = 1 then 0. else Cluster.all_gather_time t.cluster ~bytes:a_bytes
    in
    let coll =
      match e.mode with
      | Gather -> Cluster.all_gather_time t.cluster ~bytes:anchor_bytes
      | Reduce -> Cluster.all_reduce_time t.cluster ~bytes:anchor_bytes
    in
    let compute = pre_l +. part_max +. post_l in
    let comm = bcast +. coll in
    let total = compute +. comm in
    let per_device =
      Array.mapi
        (fun d f -> f.latency +. (if d = 0 then pre_l +. post_l else 0.))
        e.parts
    in
    {
      devices = n;
      compute;
      comm;
      total;
      baseline = base_latency t;
      speedup = base_latency t /. total;
      per_device;
    }
  | E_pipeline p ->
    let _, makespan = pipeline_times t p in
    let micros = Array.length p.micro_sizes in
    let stages_n = Array.length p.stage_frags in
    let drain =
      Array.fold_left
        (fun acc c -> acc +. Cluster.p2p_time t.cluster ~bytes:p.out_bytes.(c))
        0. p.class_of
    in
    let comm = ref drain in
    for s = 1 to stages_n - 1 do
      for m = 0 to micros - 1 do
        comm :=
          !comm
          +. Cluster.p2p_time t.cluster
               ~bytes:p.xfer_bytes.(s).(p.class_of.(m))
      done
    done;
    let per_device =
      Array.map
        (fun per_class ->
          Array.fold_left
            (fun acc c -> acc +. per_class.(c).latency)
            0. p.class_of)
        p.stage_frags
    in
    let total = makespan +. drain in
    {
      devices = n;
      compute = Array.fold_left Float.max 0. per_device;
      comm = !comm;
      total;
      baseline = base_latency t;
      speedup = base_latency t /. total;
      per_device;
    }

let schedule t =
  match t.exec with
  | E_pipeline p -> fst (pipeline_times t p)
  | _ -> []

let describe t =
  let c =
    Printf.sprintf "%dx %s" (Cluster.size t.cluster)
      (Cluster.device t.cluster 0).Hidet_gpu.Device.name
  in
  let join sizes =
    String.concat "+" (Array.to_list (Array.map string_of_int sizes))
  in
  match t.exec with
  | E_data { sizes; _ } -> Printf.sprintf "data[rows %s | %s]" (join sizes) c
  | E_tensor e ->
    Printf.sprintf "%s[%s=%d: %s | %s]"
      (strategy_to_string (Tensor e.mode))
      (match e.mode with Gather -> "n" | Reduce -> "k")
      e.split_extent
      (join (Array.map snd e.splits))
      c
  | E_pipeline p ->
    Printf.sprintf "pipeline[%d stages x %d micro (rows %s) | %s]"
      (Array.length p.stage_frags)
      (Array.length p.micro_sizes)
      (join p.micro_sizes) c

(* Regrouping a k-length fp32 dot product into n partial sums perturbs
   each output by at most a few units in the last place per accumulation
   step; the budget scales with the contraction extent and keeps a wide
   safety margin (see EXPERIMENTS.md). Bit-exact strategies get 0. *)
let ulp_budget t =
  match t.exec with
  | E_tensor { mode = Reduce; k; _ } -> max 256 (16 * k)
  | _ -> 0

let frags t =
  match t.exec with
  | E_data { frags; _ } -> Array.to_list frags
  | E_tensor e ->
    Option.to_list e.pre @ Array.to_list e.parts @ Option.to_list e.post
  | E_pipeline p ->
    Array.to_list p.stage_frags
    |> List.concat_map (fun per_class -> Array.to_list per_class)

let fragment_count t = List.length (frags t)

let prepare t =
  Plan.prepare t.base_plan;
  List.iter (fun f -> Plan.prepare f.plan) (frags t)

let run ?backend t bindings =
  Trace.span "shard.run" (fun _ ->
      let inputs =
        List.map
          (fun id ->
            match List.assoc_opt id bindings with
            | Some tns -> tns
            | None ->
              invalid_arg
                (Printf.sprintf "shard: missing binding for input %%%d" id))
          (G.input_ids t.source)
      in
      match t.exec with
      | E_data { frags; sizes } -> run_data ?backend frags sizes inputs
      | E_tensor e -> run_tensor ?backend t e inputs
      | E_pipeline p -> run_pipeline ?backend t p inputs)

let run1 t inputs =
  match run t (List.combine (G.input_ids t.source) inputs) with
  | [ o ] -> o
  | _ -> invalid_arg "shard: run1 on a multi-output graph"

(* --- differential comparison ------------------------------------------------ *)

let ulp_diff a b =
  if Int64.bits_of_float a = Int64.bits_of_float b then 0L
  else
    let key f =
      let i = Int64.bits_of_float f in
      if Int64.compare i 0L < 0 then Int64.sub Int64.min_int i else i
    in
    Int64.abs (Int64.sub (key a) (key b))

let verify ?backend t inputs =
  let bindings = List.combine (G.input_ids t.source) inputs in
  let got = run ?backend t bindings in
  let want = Plan.run ?backend t.base_plan bindings in
  let budget = ulp_budget t in
  let spec = describe t in
  let shape_str s = String.concat "x" (List.map string_of_int s) in
  let check_pair i g w =
    if T.shape g <> T.shape w then
      Error
        (Printf.sprintf "%s: output %d shape %s vs baseline %s" spec i
           (shape_str (T.shape g)) (shape_str (T.shape w)))
    else begin
      let dg = T.data g and dw = T.data w in
      let bad = ref None in
      Array.iteri
        (fun j x ->
          if !bad = None then begin
            let y = dw.(j) in
            let ok =
              if budget = 0 then
                Int64.bits_of_float x = Int64.bits_of_float y
              else
                Int64.compare (ulp_diff x y) (Int64.of_int budget) <= 0
                || Float.abs (x -. y) <= 1e-6
            in
            if not ok then bad := Some (j, x, y)
          end)
        dg;
      match !bad with
      | None -> Ok ()
      | Some (j, x, y) ->
        Error
          (Printf.sprintf
             "%s: output %d element %d: sharded %h vs baseline %h (ulp %Ld, \
              budget %d)"
             spec i j x y (ulp_diff x y) budget)
    end
  in
  if List.length got <> List.length want then
    Error
      (Printf.sprintf "%s: %d outputs vs baseline %d" spec (List.length got)
         (List.length want))
  else
    let rec go i = function
      | [], [] ->
        Ok
          (Printf.sprintf "%s: %d output(s) %s" spec (List.length got)
             (if budget = 0 then "bit-identical"
              else Printf.sprintf "within %d ulp" budget))
      | g :: gs, w :: ws -> (
        match check_pair i g w with
        | Ok () -> go (i + 1) (gs, ws)
        | Error _ as e -> e)
      | _ -> assert false
    in
    go 0 (got, want)
