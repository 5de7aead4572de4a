module G = Hidet_graph.Graph
module Op = Hidet_graph.Op
module Passes = Hidet_graph.Passes
module Compiled = Hidet_sched.Compiled
module Fuse = Hidet_fusion.Fuse
module Trace = Hidet_obs.Trace
module Metrics = Hidet_obs.Metrics

(* Fusion effectiveness: how many operators rode along with an anchor
   versus how many fell back to standalone rule-based kernels. *)
let m_groups = Metrics.counter "fusion.groups"
let m_fused_prologues = Metrics.counter "fusion.fused_prologues"
let m_fused_epilogues = Metrics.counter "fusion.fused_epilogues"
let m_fallback = Metrics.counter "fusion.fallback_kernels"
let m_kernels = Metrics.counter "plan.kernels_emitted"

(* Groups whose fused steps were copied from an earlier, identical group of
   the same compile instead of being fused again. *)
let m_group_reuses = Metrics.counter "fusion.group_reuses"

(* What one group's fusion added to the three fusion counters; a group the
   memo answers adds its builder's tally again. *)
type tally = {
  mutable prologues : int;
  mutable epilogues : int;
  mutable fallbacks : int;
}

type config = {
  schedule_anchor : G.t -> G.node -> Compiled.t;
  may_fuse_prologue : G.node -> bool;
  may_fuse_epilogue : G.node -> bool;
}

(* A prologue definition whose output shape must match the anchor's input
   buffer. Unary operators are shape-polymorphic, so retry against the
   buffer dims when the graph rank differs. *)
let prologue_def g (p : G.node) buffer_dims =
  let in_shapes = List.map (G.node_shape g) p.G.inputs in
  let try_def shapes =
    match Op.to_def p.G.op shapes with
    | def when def.Hidet_compute.Def.out_shape = buffer_dims -> Some def
    | _ -> None
    | exception Invalid_argument _ -> None
  in
  match try_def in_shapes with
  | Some def -> Some def
  | None -> (
    match p.G.op with
    | Op.Unary _ -> try_def [ buffer_dims ]
    | Op.Binary _ -> try_def [ buffer_dims; buffer_dims ]
    | Op.Bias_add -> (
      match in_shapes with
      | [ _; bias ] -> try_def [ buffer_dims; bias ]
      | _ -> None)
    | _ -> None)

let epilogue_def g (e : G.node) out_buffer_dims =
  let in_shapes = List.map (G.node_shape g) e.G.inputs in
  let adjusted = out_buffer_dims :: List.tl in_shapes in
  match Op.to_def e.G.op adjusted with
  | def -> Some def
  | exception Invalid_argument _ -> None

let standalone_step tally g (n : G.node) =
  tally.fallbacks <- tally.fallbacks + 1;
  let def = Op.to_def n.G.op (List.map (G.node_shape g) n.G.inputs) in
  {
    Plan.compiled = Hidet_sched.Rule_based.schedule def;
    args = n.G.inputs;
    out_node = n.G.id;
  }

let fuse_group cfg tally g (grp : Passes.group) anchor compiled : Plan.step list =
  let compiled = ref compiled in
  let slots = ref anchor.G.inputs in
  let out_node = ref grp.Passes.anchor in
  let pre_steps = ref [] in
  let prologue_set = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace prologue_set id ()) grp.Passes.prologues;
  (* Fuse prologues to fixpoint; unfusable or disallowed ones become
     standalone steps. *)
  let rec fuse_prologues () =
    let slot_arr = Array.of_list !slots in
    let idx = ref (-1) in
    Array.iteri
      (fun i node_id -> if !idx < 0 && Hashtbl.mem prologue_set node_id then idx := i)
      slot_arr;
    if !idx >= 0 then begin
      let i = !idx in
      let p = G.node g slot_arr.(i) in
      let buffer = List.nth !compiled.Compiled.ins i in
      let fallback () =
        Hashtbl.remove prologue_set p.G.id;
        pre_steps := standalone_step tally g p :: !pre_steps
      in
      (if not (cfg.may_fuse_prologue p) then fallback ()
       else
         match prologue_def g p buffer.Hidet_ir.Buffer.dims with
         | Some def -> (
           match Fuse.fuse_prologue !compiled ~input_index:i def with
           | fused ->
             tally.prologues <- tally.prologues + 1;
             compiled := fused;
             slots :=
               List.concat
                 (List.mapi (fun j s -> if j = i then p.G.inputs else [ s ]) !slots)
           | exception Invalid_argument _ -> fallback ())
         | None -> fallback ());
      fuse_prologues ()
    end
  in
  fuse_prologues ();
  (* Standalone prologues may reference other group prologues; those must
     also be emitted (in topological order). *)
  let rec emit_remaining () =
    let emitted_ids = List.map (fun (s : Plan.step) -> s.Plan.out_node) !pre_steps in
    let needed = List.concat_map (fun (s : Plan.step) -> s.Plan.args) !pre_steps in
    let missing =
      List.filter
        (fun id -> Hashtbl.mem prologue_set id && not (List.mem id emitted_ids))
        needed
    in
    match missing with
    | [] -> ()
    | id :: _ ->
      Hashtbl.remove prologue_set id;
      pre_steps := standalone_step tally g (G.node g id) :: !pre_steps;
      emit_remaining ()
  in
  emit_remaining ();
  let pre_steps =
    List.sort
      (fun (a : Plan.step) b -> compare a.Plan.out_node b.Plan.out_node)
      !pre_steps
  in
  (* Fuse epilogues in chain order; after the first failure the rest run as
     standalone kernels (order in the chain must be preserved). *)
  let post_steps = ref [] in
  let fusing = ref true in
  List.iter
    (fun e_id ->
      let e = G.node g e_id in
      let fallback () =
        post_steps := !post_steps @ [ standalone_step tally g e ];
        out_node := e.G.id;
        fusing := false
      in
      if !fusing && cfg.may_fuse_epilogue e then (
        match epilogue_def g e !compiled.Compiled.out.Hidet_ir.Buffer.dims with
        | Some def -> (
          match Fuse.fuse_epilogue !compiled def with
          | fused ->
            tally.epilogues <- tally.epilogues + 1;
            compiled := fused;
            slots := !slots @ List.tl e.G.inputs;
            out_node := e.G.id
          | exception Invalid_argument _ -> fallback ())
        | None -> fallback ())
      else fallback ())
    grp.Passes.epilogues;
  let anchor_step =
    { Plan.compiled = !compiled; args = !slots; out_node = !out_node }
  in
  (* When standalone epilogues exist, the fused part ends at the first
     standalone step's data input. *)
  let anchor_step =
    match !post_steps with
    | [] -> anchor_step
    | first :: _ -> { anchor_step with Plan.out_node = List.hd first.Plan.args }
  in
  pre_steps @ [ anchor_step ] @ !post_steps

(* --- the group memo ------------------------------------------------------------

   Repeated blocks (a transformer's layers, a ResNet's bottlenecks) give
   many groups that differ only in their node ids. [fuse_group] reads a
   group through its members' ops, shapes and inputs, its external inputs'
   shapes and the fusion predicates' verdicts, and compares ids only for
   order. So two groups with equal signatures, in ids relabeled by rank,
   fuse the same anchor kernel into the same steps, up to that relabeling.
   One memo lives for one [compile_graph] call. *)

type signature = {
  anchor_label : int;
  prologue_labels : int list;
  epilogue_labels : int list;
  members : (int * Op.t * int list * int list * bool) list;
      (** label, op, shape, input labels, predicate verdict: the anchor,
          then the prologues, then the epilogues *)
  externals : (int * int list) list;  (** label, shape; by label *)
}

module Sig_tbl = Hashtbl.Make (struct
  type t = signature

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 256
end)

type built = {
  from : Compiled.t;  (** the anchor kernel the steps were fused from *)
  steps : Plan.step list;  (** args and [out_node] as labels *)
  tally : tally;
}

(* The group's ids (members and external inputs), ascending, and its
   signature over their ranks. Every step of the group reads and writes
   only these ids. *)
let signature cfg g (grp : Passes.group) =
  let member_ids = (grp.Passes.anchor :: grp.Passes.prologues) @ grp.Passes.epilogues in
  let members = List.map (G.node g) member_ids in
  let is_member id = List.mem id member_ids in
  let externals =
    List.sort_uniq compare
      (List.concat_map
         (fun (n : G.node) -> List.filter (fun i -> not (is_member i)) n.G.inputs)
         members)
  in
  let ids = Array.of_list (List.sort compare (member_ids @ externals)) in
  let label id =
    let rec find i =
      if i = Array.length ids then raise Not_found
      else if ids.(i) = id then i
      else find (i + 1)
    in
    find 0
  in
  let verdict (n : G.node) =
    if List.mem n.G.id grp.Passes.prologues then cfg.may_fuse_prologue n
    else if List.mem n.G.id grp.Passes.epilogues then cfg.may_fuse_epilogue n
    else true
  in
  let member (n : G.node) =
    (label n.G.id, n.G.op, n.G.shape, List.map label n.G.inputs, verdict n)
  in
  ( ids,
    label,
    {
      anchor_label = label grp.Passes.anchor;
      prologue_labels = List.map label grp.Passes.prologues;
      epilogue_labels = List.map label grp.Passes.epilogues;
      members = List.map member members;
      externals = List.map (fun id -> (label id, G.node_shape g id)) externals;
    } )

let relabel f (steps : Plan.step list) =
  List.map
    (fun (s : Plan.step) ->
      { s with Plan.args = List.map f s.Plan.args; out_node = f s.Plan.out_node })
    steps

let count_fusion (t : tally) =
  Metrics.add m_fused_prologues t.prologues;
  Metrics.add m_fused_epilogues t.epilogues;
  Metrics.add m_fallback t.fallbacks

(* Fuse [grp] around [compiled], or copy the steps of an earlier group with
   the same signature whose anchor kernel was this very [compiled]. *)
let fuse_or_reuse cfg memo g grp anchor compiled =
  let ids, label, sg = signature cfg g grp in
  match Sig_tbl.find_opt memo sg with
  | Some b when b.from == compiled ->
    Metrics.incr m_group_reuses;
    count_fusion b.tally;
    relabel (Array.get ids) b.steps
  | _ ->
    let tally = { prologues = 0; epilogues = 0; fallbacks = 0 } in
    let steps = fuse_group cfg tally g grp anchor compiled in
    count_fusion tally;
    Sig_tbl.replace memo sg { from = compiled; steps = relabel label steps; tally };
    steps

(* Two child spans split the group's time: [schedule_anchor] (tuning on a
   cache miss, the cache's instantiated winner on a hit) and [fuse]
   (prologue and epilogue fusion and the standalone fallback kernels, or
   their copy from the group memo). *)
let compile_group cfg memo g (grp : Passes.group) : Plan.step list =
  Metrics.incr m_groups;
  let anchor = G.node g grp.Passes.anchor in
  let compile () =
    let compiled =
      Trace.span "schedule_anchor" (fun _ -> cfg.schedule_anchor g anchor)
    in
    Trace.span "fuse" (fun _ -> fuse_or_reuse cfg memo g grp anchor compiled)
  in
  if not (Trace.enabled ()) then compile ()
  else
    Trace.span
      ~attrs:(fun () ->
        [
          ("anchor", Op.name anchor.G.op);
          ("prologues", string_of_int (List.length grp.Passes.prologues));
          ("epilogues", string_of_int (List.length grp.Passes.epilogues));
        ])
      "compile_group"
      (fun _sp -> compile ())

let compile_graph cfg g =
  let groups =
    Trace.span "partition" (fun sp ->
        let groups = Passes.partition g in
        Trace.add sp "groups" (string_of_int (List.length groups));
        groups)
  in
  let plan =
    Trace.span "schedule_and_fuse" (fun sp ->
        let plan =
          let memo = Sig_tbl.create 64 in
          { Plan.graph = g; steps = List.concat_map (compile_group cfg memo g) groups }
        in
        Trace.add sp "kernels" (string_of_int (Plan.kernel_count plan));
        plan)
  in
  (* Launches, like the compile result's [kernel_count]: a split-k step
     emits two kernels. *)
  Metrics.add m_kernels (Plan.kernel_count plan);
  plan
