open Hidet_ir

let prod = Array.fold_left ( * ) 1

(* One alternative = (loop wrapper, per-dimension global and local index
   contributions). Spatial and repeat atoms produce a single alternative;
   custom atoms with q tasks per worker produce q alternatives (the body is
   instantiated once per alternative, like an unrolled loop). Local
   contributions are nonzero only for repeat atoms. *)
type alternative = {
  wrap : Stmt.t -> Stmt.t;
  contrib : Expr.t array;
  local_contrib : Expr.t array;
}

type instance = {
  global : Expr.t list;
  local : Expr.t list;
  wrap : Stmt.t -> Stmt.t;
}

let zeros m = Array.make m (Expr.int 0)

let atom_alternatives (a : Mapping.internal_atom) (w : Expr.t) : alternative list =
  match a with
  | Mapping.Spatial { shape; order } ->
    let m = Array.length shape in
    let contrib = Array.make m (Expr.int 0) in
    (* Decode [w] along [order], innermost (last position) varying fastest. *)
    let stride = ref 1 in
    for p = m - 1 downto 0 do
      let d = order.(p) in
      contrib.(d) <-
        Expr.modulo (Expr.div w (Expr.int !stride)) (Expr.int shape.(d));
      stride := !stride * shape.(d)
    done;
    [ { wrap = (fun s -> s); contrib; local_contrib = zeros m } ]
  | Mapping.Repeat { shape; order } ->
    (* A dim of extent 1 gets no loop: its index is 0 from the start, as
       [Stmt.for_] would substitute it. *)
    let contrib =
      Array.map (fun n -> if n = 1 then Expr.int 0 else Expr.var (Var.fresh "r")) shape
    in
    let wrap body =
      (* order.(0) is the outermost loop. *)
      Array.fold_right
        (fun d acc ->
          match contrib.(d) with
          | Expr.Var v -> Stmt.for_ ~unroll:true v (Expr.int shape.(d)) acc
          | _ -> acc)
        order body
    in
    [ { wrap; contrib; local_contrib = Array.copy contrib } ]
  | Mapping.Custom { name; shape; workers; f } ->
    if workers > 256 then
      invalid_arg
        (Printf.sprintf
           "Lower: custom mapping %s has %d workers; select-chain lowering \
            supports at most 256"
           name workers);
    let m = Array.length shape in
    let tables =
      Array.init workers (fun i -> Array.of_list (List.map Array.of_list (f i)))
    in
    let tpw = Array.length tables.(0) in
    Array.iter
      (fun tbl ->
        if Array.length tbl <> tpw then
          invalid_arg (Printf.sprintf "Lower: custom mapping %s is ragged" name))
      tables;
    List.init tpw (fun q ->
        let contrib =
          Array.init m (fun d ->
              (* select-chain over the worker id; the last case is the
                 fallback so the expression is total. *)
              let rec chain i =
                if i = workers - 1 then Expr.int tables.(i).(q).(d)
                else
                  Expr.select
                    (Expr.eq w (Expr.int i))
                    (Expr.int tables.(i).(q).(d))
                    (chain (i + 1))
              in
              chain 0)
        in
        { wrap = (fun s -> s); contrib; local_contrib = zeros m })

let atom_workers = function
  | Mapping.Spatial { shape; _ } -> prod shape
  | Mapping.Repeat _ -> 1
  | Mapping.Custom { workers; _ } -> workers

let atom_shape = function
  | Mapping.Spatial { shape; _ } | Mapping.Repeat { shape; _ }
  | Mapping.Custom { shape; _ } ->
    shape

let is_repeat = function Mapping.Repeat _ -> true | _ -> false

let local_shape (m : Mapping.t) =
  let dims = Mapping.dims m in
  let shape = Array.make dims 1 in
  List.iter
    (fun a ->
      if is_repeat a then
        Array.iteri (fun d x -> shape.(d) <- shape.(d) * x) (atom_shape a))
    (Mapping.internal_atoms m);
  Array.to_list shape

let tasks_of (m : Mapping.t) ~(worker : Expr.t) : instance list =
  let atoms = Mapping.internal_atoms m in
  let dims = Mapping.dims m in
  let n = List.length atoms in
  let atom_arr = Array.of_list atoms in
  (* Worker component of each atom: w_i = (worker / n_after_i) mod n_i. *)
  let n_after = Array.make n 1 in
  for i = n - 2 downto 0 do
    n_after.(i) <- n_after.(i + 1) * atom_workers atom_arr.(i + 1)
  done;
  let w_components =
    Array.mapi
      (fun i a ->
        let nw = atom_workers a in
        if nw = 1 then Expr.int 0
        else Expr.modulo (Expr.div worker (Expr.int n_after.(i))) (Expr.int nw))
      atom_arr
  in
  (* Per-dimension strides: global over all later atoms' shapes, local over
     later *repeat* atoms' shapes only. *)
  let strides = Array.make_matrix n dims 1 in
  let local_strides = Array.make_matrix n dims 1 in
  for i = n - 2 downto 0 do
    let s = atom_shape atom_arr.(i + 1) in
    for d = 0 to dims - 1 do
      strides.(i).(d) <- strides.(i + 1).(d) * s.(d);
      local_strides.(i).(d) <-
        (local_strides.(i + 1).(d)
        * if is_repeat atom_arr.(i + 1) then s.(d) else 1)
    done
  done;
  let per_atom =
    Array.to_list
      (Array.mapi (fun i a -> atom_alternatives a w_components.(i)) atom_arr)
  in
  let rec cartesian = function
    | [] -> [ [] ]
    | alts :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun alt -> List.map (fun tl -> alt :: tl) tails) alts
  in
  List.map
    (fun combo ->
      let indexed = List.mapi (fun i alt -> (i, alt)) combo in
      let sum_with stride_tbl pick =
        Array.init dims (fun d ->
            List.fold_left
              (fun acc (i, alt) ->
                Expr.add acc (Expr.mul (pick alt).(d) (Expr.int stride_tbl.(i).(d))))
              (Expr.int 0) indexed)
      in
      let global = sum_with strides (fun alt -> alt.contrib) in
      let local = sum_with local_strides (fun alt -> alt.local_contrib) in
      let wrap body =
        List.fold_right (fun (alt : alternative) acc -> alt.wrap acc) combo body
      in
      { global = Array.to_list global; local = Array.to_list local; wrap })
    (cartesian per_atom)

let on_workers m ~worker body =
  let instances = tasks_of m ~worker in
  Stmt.seq (List.map (fun inst -> inst.wrap (body inst.global)) instances)

let on_workers_local m ~worker body =
  let instances = tasks_of m ~worker in
  Stmt.seq
    (List.map
       (fun inst -> inst.wrap (body ~global:inst.global ~local:inst.local))
       instances)
