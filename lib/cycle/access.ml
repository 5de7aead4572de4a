open Hidet_ir

(* Per-warp access-pattern analysis.

   [traced_sites] executes the kernel body for one sampled warp (warp 0 of
   block 0) with real loop iterations and per-lane predication, and records
   the addresses each memory-access site actually touches. That covers
   affine indices, loop-dependent predicates and indirect (gather)
   addressing alike, and yields the address stream the cache model replays.
   Loops are capped at a few iterations with counts scaled back up, which
   is exact for loop-uniform access patterns: the qcheck property in
   test_cycle checks capped against uncapped traces on affine kernels.

   Sites are numbered structurally (traversal order, each syntactic site
   once per enclosing-loop pass), so every pass of a loop adds into the
   same site records. *)

type kind = Global_load | Global_store | Shared_load | Shared_store

type site = {
  kind : kind;
  weight : float;  (** loop-scaled executions of the site per warp *)
  transactions : float;
      (** global sites: coalesced line segments per execution, per warp *)
  conflict : float;
      (** shared sites: bank-conflict degree per execution (1 = free) *)
  in_main_loop : bool;
}

let is_global s = match s.kind with
  | Global_load | Global_store -> true
  | Shared_load | Shared_store -> false

let warp_lanes = Kernel.warp_size
let num_banks = 32
let bank_word_bytes = 4

(* Distinct cache-line segments touched by one warp access, translation
   invariant (offsets from the warp's minimum address): an affine access
   produces the same count on every loop iteration, which is what makes a
   capped trace exact for loop-uniform patterns. *)
let segments ~line addrs =
  match addrs with
  | [] -> 0
  | _ ->
    let base = List.fold_left min max_int addrs in
    let segs = Hashtbl.create 8 in
    List.iter (fun a -> Hashtbl.replace segs ((a - base) / line) ()) addrs;
    Hashtbl.length segs

(* Shared-memory bank-conflict degree: the maximum number of distinct
   4-byte words mapping to one of the 32 banks. Lanes reading the same word
   broadcast (no conflict). Also computed on min-relative addresses: a
   uniform (word-aligned) shift rotates banks without changing the degree. *)
let conflict_degree addrs =
  match addrs with
  | [] -> 1
  | _ ->
    let base = List.fold_left min max_int addrs in
    let per_bank : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun a ->
        let w = (a - base) / bank_word_bytes in
        let b = w mod num_banks in
        let tbl =
          match Hashtbl.find_opt per_bank b with
          | Some t -> t
          | None ->
            let t = Hashtbl.create 4 in
            Hashtbl.add per_bank b t;
            t
        in
        Hashtbl.replace tbl w ())
      addrs;
    Hashtbl.fold (fun _ t acc -> max acc (Hashtbl.length t)) per_bank 1

let flatten_index (b : Buffer.t) indices =
  List.fold_left2
    (fun acc idx dim -> Expr.add (Expr.mul acc (Expr.int dim)) idx)
    (Expr.int 0) indices b.Buffer.dims

(* The kernel's dominant round structure: an outermost [For] whose body
   issues global-memory accesses is a main loop; the largest such trip
   count is the number of prefetch/compute rounds the warp scheduler
   interleaves. *)
let rec stmt_has_global_access (s : Stmt.t) =
  let rec expr_has = function
    | Expr.Load (b, idx) ->
      b.Buffer.scope = Buffer.Global || List.exists expr_has idx
    | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> false
    | Binop (_, a, b) -> expr_has a || expr_has b
    | Unop (_, a) -> expr_has a
    | Select (c, a, b) -> expr_has c || expr_has a || expr_has b
  in
  match s with
  | Seq ss -> List.exists stmt_has_global_access ss
  | For { extent; body; _ } -> expr_has extent || stmt_has_global_access body
  | If { cond; then_; else_ } ->
    expr_has cond
    || stmt_has_global_access then_
    || (match else_ with Some e -> stmt_has_global_access e | None -> false)
  | Let { value; body; _ } -> expr_has value || stmt_has_global_access body
  | Store { buf; indices; value } ->
    buf.Buffer.scope = Buffer.Global
    || List.exists expr_has indices
    || expr_has value
  | Mma _ -> false
  | Sync_threads | Comment _ -> false


(* --- trace sampler ---------------------------------------------------------- *)

type traced = {
  sites : site list;
  stream : int array;
      (** absolute cache-line ids of the sampled warp's global transactions,
          in program order (buffers placed at disjoint line-aligned bases) *)
  main_trips : float;
}

(* Lines of the address stream kept for the cache model. *)
let stream_cap = 8192

type acc = {
  mutable execs : float;
  mutable txn : float;
  mutable conf : float;
  a_kind : kind;
  a_in_main : bool;
}

let traced_sites ?(line = 128) ?(loop_cap = max_int) (k : Kernel.t) : traced =
  let accs : (int, acc) Hashtbl.t = Hashtbl.create 32 in
  let stream = ref [] in
  let stream_len = ref 0 in
  let main_trips = ref 1. in
  let bases : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let next_base = ref 0 in
  let base_of (buf : Buffer.t) =
    match Hashtbl.find_opt bases buf.Buffer.id with
    | Some b -> b
    | None ->
      let b = (!next_base + line - 1) / line * line in
      Hashtbl.add bases buf.Buffer.id b;
      next_base := b + Buffer.size_bytes buf;
      b
  in
  let vals : (int, Expr.value) Hashtbl.t array =
    Array.init warp_lanes (fun _ -> Hashtbl.create 32)
  in
  let env lane =
    {
      Expr.lookup =
        (fun v ->
          match Hashtbl.find_opt vals.(lane) v.Var.id with
          | Some x -> x
          | None -> Expr.V_int 0);
      load = (fun _ _ -> Expr.V_float 0.);
      thread_idx = lane;
      block_idx = 0;
    }
  in
  (* Structural site numbering across repeated loop passes: the counter is
     reset to the loop-entry value before each iteration; every pass
     traverses the same syntactic sites, so positions are stable. *)
  let next = ref 0 in
  let record ~scale ~mask ~in_main kind buf indices =
    let id = !next in
    incr next;
    let a =
      match Hashtbl.find_opt accs id with
      | Some a -> a
      | None ->
        let a =
          { execs = 0.; txn = 0.; conf = 0.; a_kind = kind; a_in_main = in_main }
        in
        Hashtbl.add accs id a;
        a
    in
    a.execs <- a.execs +. scale;
    if scale > 0. then begin
      let elt = Dtype.size_bytes buf.Buffer.elt in
      let flat = flatten_index buf indices in
      let addrs =
        List.filter_map
          (fun l ->
            if mask.(l) then
              match Expr.eval_int (env l) flat with
              | v -> Some (v * elt)
              | exception _ -> None
            else None)
          (List.init warp_lanes Fun.id)
      in
      match kind with
      | Global_load | Global_store ->
        a.txn <- a.txn +. (scale *. float_of_int (segments ~line addrs));
        if !stream_len < stream_cap && addrs <> [] then begin
          let base = base_of buf in
          let seen = Hashtbl.create 8 in
          List.iter
            (fun ad ->
              let l = (base + ad) / line in
              if not (Hashtbl.mem seen l) then begin
                Hashtbl.add seen l ();
                stream := l :: !stream;
                incr stream_len
              end)
            addrs
        end
      | Shared_load | Shared_store ->
        a.conf <- a.conf +. (scale *. float_of_int (conflict_degree addrs))
    end
  in
  let rec texpr ~scale ~mask ~in_main (e : Expr.t) =
    let go = texpr ~scale ~mask ~in_main in
    match e with
    | Expr.Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> ()
    | Binop (_, a, b) ->
      go a;
      go b
    | Unop (_, a) -> go a
    | Select (c, a, b) ->
      go c;
      go a;
      go b
    | Load (buf, idx) -> (
      List.iter go idx;
      match buf.Buffer.scope with
      | Buffer.Global -> record ~scale ~mask ~in_main Global_load buf idx
      | Buffer.Shared -> record ~scale ~mask ~in_main Shared_load buf idx
      | Buffer.Warp | Buffer.Register -> ())
  in
  let restore var saved =
    Array.iteri
      (fun l saved_v ->
        match saved_v with
        | Some v -> Hashtbl.replace vals.(l) var.Var.id v
        | None -> Hashtbl.remove vals.(l) var.Var.id)
      saved
  in
  let rec tstmt ~scale ~mask ~in_main (s : Stmt.t) =
    match s with
    | Stmt.Seq ss -> List.iter (tstmt ~scale ~mask ~in_main) ss
    | For { var; extent; body; _ } ->
      texpr ~scale ~mask ~in_main extent;
      let n =
        match Expr.const_int extent with
        | Some n -> max n 0
        | None -> (
          try max (Expr.eval_int (env 0) extent) 0 with _ -> 0)
      in
      (* The first global-access loop on a path is a main loop. It is never
         nested in another loop (that loop's body would access global
         memory too), so it is walked once. *)
      let in_main' = in_main || stmt_has_global_access body in
      if in_main' && not in_main then
        main_trips := Float.max !main_trips (float_of_int n);
      let iters = min n loop_cap in
      let saved = Array.map (fun t -> Hashtbl.find_opt t var.Var.id) vals in
      let entry = !next in
      if iters = 0 then begin
        (* Keep the numbering structural: one pass at zero weight with no
           active lanes, so the body's sites exist in every pass of an
           enclosing loop. *)
        Array.iter (fun t -> Hashtbl.replace t var.Var.id (Expr.V_int 0)) vals;
        tstmt ~scale:0. ~mask:(Array.make warp_lanes false) ~in_main:in_main'
          body
      end
      else begin
        let sc = scale *. (float_of_int n /. float_of_int iters) in
        for i = 0 to iters - 1 do
          next := entry;
          Array.iter
            (fun t -> Hashtbl.replace t var.Var.id (Expr.V_int i))
            vals;
          tstmt ~scale:sc ~mask ~in_main:in_main' body
        done
      end;
      restore var saved
    | If { cond; then_; else_ } ->
      texpr ~scale ~mask ~in_main cond;
      (* Per-lane predication: a lane whose predicate fails to evaluate is
         inactive in both branches. *)
      let cm =
        Array.init warp_lanes (fun l ->
            if not mask.(l) then None
            else
              match Expr.eval_bool (env l) cond with
              | b -> Some b
              | exception _ -> None)
      in
      let then_mask = Array.map (function Some true -> true | _ -> false) cm in
      let else_mask =
        Array.map (function Some false -> true | _ -> false) cm
      in
      tstmt ~scale ~mask:then_mask ~in_main then_;
      (match else_ with
      | Some e -> tstmt ~scale ~mask:else_mask ~in_main e
      | None -> ())
    | Let { var; value; body } ->
      texpr ~scale ~mask ~in_main value;
      let saved = Array.map (fun t -> Hashtbl.find_opt t var.Var.id) vals in
      Array.iteri
        (fun l _ ->
          match Expr.eval (env l) value with
          | v -> Hashtbl.replace vals.(l) var.Var.id v
          | exception _ -> ())
        vals;
      tstmt ~scale ~mask ~in_main body;
      restore var saved
    | Store { buf; indices; value } -> (
      List.iter (texpr ~scale ~mask ~in_main) indices;
      texpr ~scale ~mask ~in_main value;
      match buf.Buffer.scope with
      | Buffer.Global -> record ~scale ~mask ~in_main Global_store buf indices
      | Buffer.Shared -> record ~scale ~mask ~in_main Shared_store buf indices
      | Buffer.Warp | Buffer.Register -> ())
    | Mma _ | Sync_threads | Comment _ -> ()
  in
  tstmt ~scale:1. ~mask:(Array.make warp_lanes true) ~in_main:false
    k.Kernel.body;
  let sites =
    List.init !next (fun id ->
        let a = Hashtbl.find accs id in
        {
          kind = a.a_kind;
          weight = a.execs;
          transactions =
            (match a.a_kind with
            | Global_load | Global_store ->
              if a.execs > 0. then a.txn /. a.execs else 0.
            | _ -> 0.);
          conflict =
            (match a.a_kind with
            | Shared_load | Shared_store ->
              if a.execs > 0. then a.conf /. a.execs else 1.
            | _ -> 1.);
          in_main_loop = a.a_in_main;
        })
  in
  {
    sites;
    stream = Array.of_list (List.rev !stream);
    main_trips = !main_trips;
  }

(* --- aggregate -------------------------------------------------------------- *)

type summary = {
  main_trips : float;
  load_txn_main : float;
  load_txn_other : float;
  store_txn : float;
  shared_cycles_main : float;
  shared_cycles_other : float;
  global_accesses : float;
  txn_per_access : float;
  conflict_factor : float;
  stream : int array;
}

let analyze ?(line = 128) (k : Kernel.t) : summary =
  let t = traced_sites ~line ~loop_cap:8 k in
  let fold f init = List.fold_left f init t.sites in
  let load_txn_main =
    fold
      (fun acc x ->
        if x.kind = Global_load && x.in_main_loop then
          acc +. (x.weight *. x.transactions)
        else acc)
      0.
  in
  let load_txn_other =
    fold
      (fun acc x ->
        if x.kind = Global_load && not x.in_main_loop then
          acc +. (x.weight *. x.transactions)
        else acc)
      0.
  in
  let store_txn =
    fold
      (fun acc x ->
        if x.kind = Global_store then acc +. (x.weight *. x.transactions)
        else acc)
      0.
  in
  let shared_cycles in_main =
    fold
      (fun acc x ->
        match x.kind with
        | Shared_load | Shared_store when x.in_main_loop = in_main ->
          acc +. (x.weight *. x.conflict)
        | _ -> acc)
      0.
  in
  let global_accesses =
    fold (fun acc x -> if is_global x then acc +. x.weight else acc) 0.
  in
  let global_txn = load_txn_main +. load_txn_other +. store_txn in
  let shared_weight =
    fold (fun acc x -> if is_global x then acc else acc +. x.weight) 0.
  in
  let shared_conf =
    fold
      (fun acc x -> if is_global x then acc else acc +. (x.weight *. x.conflict))
      0.
  in
  {
    main_trips = t.main_trips;
    load_txn_main;
    load_txn_other;
    store_txn;
    shared_cycles_main = shared_cycles true;
    shared_cycles_other = shared_cycles false;
    global_accesses;
    txn_per_access =
      (if global_accesses > 0. then global_txn /. global_accesses else 0.);
    conflict_factor =
      (if shared_weight > 0. then shared_conf /. shared_weight else 1.);
    stream = t.stream;
  }
