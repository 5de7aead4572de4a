module Compiled = Hidet_sched.Compiled
module Graph = Hidet_graph.Graph
module Op = Hidet_graph.Op
module Tensor = Hidet_tensor.Tensor

type step = { compiled : Compiled.t; args : int list; out_node : int }
type t = { graph : Graph.t; steps : step list }

let latency ?fidelity device plan =
  List.fold_left
    (fun acc s -> acc +. Compiled.latency ?fidelity device s.compiled)
    0. plan.steps

let kernel_count plan =
  List.fold_left
    (fun acc s -> acc + List.length s.compiled.Compiled.kernels)
    0 plan.steps

(* OCaml's [Lazy] is not domain-safe: two domains forcing the same thunk
   concurrently race (one can observe [Lazy.Undefined] or a torn memo).
   Constant thunks are shared — across concurrent runs of one plan, and
   across plans (batch-bucket variants of a model reuse the same weight
   thunks) — so every force goes through one process-wide lock. Forcing is
   once-only (the lazy memoizes under the lock); steady-state runs of a
   [prepare]d plan never touch the lock's contended path because the memo
   is already filled. *)
let constant_lock = Mutex.create ()

let force_constant value =
  (* No [Lazy.is_val] fast path: even reading a lazy's state races with a
     concurrent force. The lock is uncontended after [prepare]. *)
  Mutex.lock constant_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock constant_lock)
    (fun () -> Lazy.force value)

let prepare plan =
  List.iter
    (fun (n : Graph.node) ->
      match n.Graph.op with
      | Op.Constant { value } -> ignore (force_constant value)
      | _ -> ())
    (Graph.nodes plan.graph)

let run ?(around = fun _ _ f -> f ()) ?backend plan bindings =
  let values = Hashtbl.create 64 in
  List.iter (fun (id, t) -> Hashtbl.replace values id t) bindings;
  let lookup id =
    match Hashtbl.find_opt values id with
    | Some t -> t
    | None -> (
      match (Graph.node plan.graph id).Graph.op with
      | Op.Constant { value } ->
        let t = force_constant value in
        Hashtbl.replace values id t;
        t
      | Op.Input ->
        invalid_arg (Printf.sprintf "Plan.run: input node %d unbound" id)
      | _ ->
        invalid_arg
          (Printf.sprintf "Plan.run: node %d consumed before being produced" id))
  in
  List.iteri
    (fun i s ->
      let args = List.map lookup s.args in
      let out = around i s (fun () -> Compiled.run ?backend s.compiled args) in
      (* Re-shape the result to the graph node's shape (buffer ranks may
         differ from the logical shape, e.g. [rows, cols] row templates). *)
      let shape = Graph.node_shape plan.graph s.out_node in
      Hashtbl.replace values s.out_node (Tensor.reshape out shape))
    plan.steps;
  List.map lookup (Graph.outputs plan.graph)

let run1 ?around ?backend plan inputs =
  let ids = Graph.input_ids plan.graph in
  if List.length ids <> List.length inputs then
    invalid_arg "Plan.run1: input count mismatch";
  match run ?around ?backend plan (List.combine ids inputs) with
  | [ out ] -> out
  | _ -> invalid_arg "Plan.run1: graph has multiple outputs"

let cuda_source plan =
  Hidet_ir.Cuda_codegen.program
    (List.concat_map (fun s -> s.compiled.Compiled.kernels) plan.steps)

let pp fmt plan =
  Format.fprintf fmt "@[<v>plan (%d steps, %d kernels):@," (List.length plan.steps)
    (kernel_count plan);
  List.iter
    (fun s ->
      Format.fprintf fmt "  %%%d <- %s(%s)@," s.out_node s.compiled.Compiled.name
        (String.concat ", "
           (List.map (fun i -> "%" ^ string_of_int i) s.args)))
    plan.steps;
  Format.fprintf fmt "@]"
