open Hidet_ir
module M = Hidet_task.Mapping
module L = Hidet_task.Lower

type config = {
  block_m : int;
  block_n : int;
  block_k : int;
  warp_m : int;
  warp_n : int;
  stages : int;
  split_k : int;
  use_tensor_core : bool;
  swizzle : bool;
}

let default_config =
  {
    block_m = 64;
    block_n = 64;
    block_k = 8;
    warp_m = 32;
    warp_n = 32;
    stages = 2;
    split_k = 1;
    use_tensor_core = false;
    swizzle = false;
  }

let ceil_div a b = (a + b - 1) / b

(* Cooperative loading of a (rows x cols) tile by [threads] threads: each
   thread handles rows*cols/threads elements via repeat ∘ spatial, either
   [threads / cols] whole rows at a time or a slice of each row. *)
let splits_rows ~rows ~cols ~threads =
  threads <= rows * cols && threads mod cols = 0 && rows mod (threads / cols) = 0

let loadable ~rows ~cols ~threads =
  splits_rows ~rows ~cols ~threads || cols mod threads = 0

let load_mapping ~rows ~cols ~threads =
  if not (loadable ~rows ~cols ~threads) then None
  else if splits_rows ~rows ~cols ~threads then
    Some M.(repeat [ rows / (threads / cols); 1 ] *> spatial [ threads / cols; cols ])
  else Some M.(repeat [ rows; cols / threads ] *> spatial [ 1; threads ])

let num_warps cfg = cfg.block_m / cfg.warp_m * (cfg.block_n / cfg.warp_n)
let block_dim cfg = num_warps cfg * 32

let check cfg =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if cfg.block_m <= 0 || cfg.block_n <= 0 || cfg.block_k <= 0 then
    err "non-positive block tile"
  else if cfg.block_m mod cfg.warp_m <> 0 || cfg.block_n mod cfg.warp_n <> 0 then
    err "warp tile does not divide block tile"
  else if cfg.use_tensor_core && (cfg.warp_m mod 16 <> 0 || cfg.warp_n mod 16 <> 0)
  then err "tensor-core warp tile must be a multiple of 16x16"
  else if cfg.use_tensor_core && cfg.block_k mod 8 <> 0 then
    err "tensor-core block_k must be a multiple of 8"
  else if (not cfg.use_tensor_core)
          && (cfg.warp_m mod 4 <> 0 || cfg.warp_n mod 8 <> 0)
  then err "CUDA-core warp tile must be a multiple of 4x8"
  else if num_warps cfg < 1 || num_warps cfg > 16 then
    err "warps per block out of [1, 16]"
  else if cfg.split_k < 1 || cfg.split_k > 16 then err "split_k out of range"
  else if cfg.stages < 1 || cfg.stages > 4 then err "stages out of [1, 4]"
  else
    let bd = block_dim cfg in
    if not (loadable ~rows:cfg.block_m ~cols:cfg.block_k ~threads:bd) then
      err "no cooperative load mapping for the A tile"
    else if not (loadable ~rows:cfg.block_k ~cols:cfg.block_n ~threads:bd)
    then err "no cooperative load mapping for the B tile"
    else if
      (not cfg.use_tensor_core)
      && cfg.warp_m / 4 * (cfg.warp_n / 8) > 128
    then err "register tile too large"
    else Ok ()

let config_to_string cfg =
  let i = string_of_int in
  String.concat ""
    [
      "b"; i cfg.block_m; "x"; i cfg.block_n; "x"; i cfg.block_k;
      "_w"; i cfg.warp_m; "x"; i cfg.warp_n;
      (match cfg.stages with 2 -> "_db" | 3 -> "_s3" | 4 -> "_s4" | _ -> "");
      (if cfg.split_k > 1 then "_sk" ^ i cfg.split_k else "");
      (if cfg.use_tensor_core then "_tc" else "");
      (if cfg.swizzle then "_swz" else "");
    ]

(* The k-tiles block 0 of [compile]'s main kernel runs: the split-k chunk. *)
let trips ~k cfg = ceil_div (ceil_div k cfg.block_k) cfg.split_k

(* Block 0's barriers in [compile]'s main kernel: a pipelined main loop
   syncs once after the preload and once per trip, an unpipelined one
   twice per trip. *)
let barriers ~stages trips = if stages >= 2 then 1 + trips else 2 * trips
let syncs ~k cfg = barriers ~stages:cfg.stages (trips ~k cfg)

(* [Kernel.regs_per_thread] of [compile]'s main kernel: the accumulator
   (the CUDA-core register tile and its two operand fragments, or the
   tensor-core warp fragment in 32-lane words), the pipelined path's
   staging registers (one tile's share per thread), and 24. *)
let regs_per_thread cfg =
  let bd = block_dim cfg in
  let acc =
    if cfg.use_tensor_core then ceil_div (cfg.warp_m * cfg.warp_n) 32
    else
      let tm = cfg.warp_m / 4 and tn = cfg.warp_n / 8 in
      (tm * tn) + tm + tn
  in
  let staging =
    if cfg.stages >= 2 then
      (cfg.block_m * cfg.block_k / bd) + (cfg.block_k * cfg.block_n / bd)
    else 0
  in
  acc + staging + 24

(* The relative margin [block_reuse] adds to its closed form: [Traffic]
   sums the same ratio site by site in another order, a few hundred
   roundings of 2^-53 at most, so the result is never below [Traffic]'s. *)
let reuse_margin = 5e-13

(* [v] is none of [seen.(j .. len - 1)]. *)
let rec absent seen len v j =
  j = len || (seen.(j) <> v && absent seen len v (j + 1))

(* [block_reuse] (see the interface) before memoising: over a prefix of
   [p] blocks with [da] distinct A bases and [db] distinct B bases, the
   ratio [Traffic] computes is [p (bm + bn) / (bm da + bn db)], capped at
   [p], and the reuse is the best prefix. *)
let closed_form_reuse ~batch ~a_batched ~b_batched ~m ~n ~k ~window cfg =
  let bm, bn, bk = (cfg.block_m, cfg.block_n, cfg.block_k) in
  let gm = ceil_div m bm and gn = ceil_div n bn in
  let chunk = ceil_div (ceil_div k bk) cfg.split_k in
  let w = Int.max 1 (Int.min window (batch * cfg.split_k * gm * gn)) in
  if w = 1 then 1.
  else
    let panels = gm mod 4 = 0 in
    (* The best prefix for one pair of operand layouts, with each prefix's
       distinct bases in [seen_a] and [seen_b]. *)
    let seen_a = Array.make w 0 and seen_b = Array.make w 0 in
    let best ~a_batched ~b_batched =
      let da = ref 0 and db = ref 0 and best = ref 1. in
      for bid = 0 to w - 1 do
        (* Block [bid]'s tile row and column in [compile]'s launch order
           (row-major, or with [swizzle] the panelized order, 4 tile rows
           per column, when they divide [gm], else column-major), its
           batch and its first k-tile. *)
        let q = bid / (gm * gn) in
        let r = bid - (q * gm * gn) in
        let im =
          if not cfg.swizzle then r / gn
          else if panels then (r / (4 * gn) * 4) + (r mod (4 * gn) mod 4)
          else r mod gm
        and jn =
          if not cfg.swizzle then r mod gn
          else if panels then r mod (4 * gn) / 4
          else r / gm
        and b = q / cfg.split_k
        and kstart = q mod cfg.split_k * chunk in
        let base_a =
          (((if a_batched then b * m else 0) + (im * bm)) * k) + (kstart * bk)
        and base_b =
          (((if b_batched then b * k else 0) + (kstart * bk)) * n) + (jn * bn)
        in
        if absent seen_a !da base_a 0 then begin
          seen_a.(!da) <- base_a;
          incr da
        end;
        if absent seen_b !db base_b 0 then begin
          seen_b.(!db) <- base_b;
          incr db
        end;
        (* [Float.min] and [Float.max] of positive floats *)
        let p = float_of_int (bid + 1) in
        let ratio =
          float_of_int ((bid + 1) * (bm + bn))
          /. float_of_int ((bm * !da) + (bn * !db))
        in
        let capped = if ratio < p then ratio else p in
        if capped > !best then best := capped
      done;
      !best
    in
    (* An operand layout left out takes the larger reuse of its two. *)
    let layouts = function None -> [ true; false ] | Some l -> [ l ] in
    List.fold_left
      (fun acc a_batched ->
        List.fold_left
          (fun acc b_batched -> Float.max acc (best ~a_batched ~b_batched))
          acc (layouts b_batched))
      1. (layouts a_batched)
    *. (1. +. reuse_margin)

let block_reuse ?(batch = 1) ?a_batched ?b_batched ~m ~n ~k cfg ~window =
  closed_form_reuse ~batch ~a_batched ~b_batched ~m ~n ~k ~window cfg

(* The split-k reduce kernel, C[b,i,j] = sum_z Cp[z,b,i,j]: it depends on
   (batch, m, n, split_k) alone. *)
let splitk_reduce ~name ~batch ~m ~n ~split_k cp c_buf =
  let ( +: ) = Expr.add and ( /: ) = Expr.div and ( %: ) = Expr.modulo in
  let total = batch * m * n in
  let rb = 256 in
  let v_gid = Var.fresh "gid" in
  let gid = Expr.var v_gid in
  let v_zz = Var.fresh "zz" in
  let acc = Buffer.create ~scope:Buffer.Register "acc" [ 1 ] in
  let idx = [ gid /: Expr.int (m * n); gid /: Expr.int n %: Expr.int m; gid %: Expr.int n ] in
  let reduce_body =
    Stmt.let_ v_gid
      ((Expr.mul Expr.Block_idx (Expr.int rb)) +: Expr.Thread_idx)
      (Stmt.if_ (Expr.lt gid (Expr.int total))
         (Stmt.seq
            [
              Stmt.store acc [ Expr.int 0 ] (Expr.float 0.);
              Stmt.for_ ~unroll:true v_zz (Expr.int split_k)
                (Stmt.store acc [ Expr.int 0 ]
                   (Expr.add
                      (Expr.load acc [ Expr.int 0 ])
                      (Expr.load cp (Expr.var v_zz :: idx))));
              Stmt.store c_buf idx (Expr.load acc [ Expr.int 0 ]);
            ]))
  in
  Kernel.create ~regs:[ acc ] ~name ~params:[ cp; c_buf ]
    ~grid_dim:(ceil_div total rb) ~block_dim:rb (Simplify.stmt reduce_body)

let reduce_latency d ~batch ~m ~n =
  let latencies = Hashtbl.create 4 in
  fun split_k ->
    match Hashtbl.find latencies split_k with
    | latency -> latency
    | exception Not_found ->
      let cp = Buffer.create "Cp" [ split_k; batch; m; n ] in
      let c = Buffer.create "C" [ batch; m; n ] in
      let latency =
        (Hidet_gpu.Perf_model.kernel d
           (splitk_reduce ~name:"splitk_reduce" ~batch ~m ~n ~split_k cp c))
          .latency
      in
      Hashtbl.add latencies split_k latency;
      latency

(* The terms of a space's floors that depend on the configs alone, an array
   each: whether [check] accepts the config, [compile]'s block size,
   registers, shared bytes and stores per thread, per k-tile the words
   each thread stages through shared memory, its fragment reads and its
   FMAs (0 for a config [check] refuses), and its reuse group; and, per
   device, the resident blocks (0 where the footprint admits none).
   Configs of one reuse group agree on all [closed_form_reuse] reads: the
   block tile, split-k, swizzle and, with split-k, [block_k] (without it
   every block starts at k-tile 0). *)
type terms = {
  configs : config array;
  checked : bool array;
  threads : int array;
  regs : int array;
  smem : int array;
  stores : float array;
  staged : int array;
  fragments : int array;
  fmas : int array;
  reuse_groups : int array;
  groups : int;
  occupancy : (Hidet_gpu.Device.t * int array) list Atomic.t;
}

let terms configs =
  let len = Array.length configs in
  let groups = Hashtbl.create 64 in
  let group cfg =
    let key =
      ( cfg.block_m,
        cfg.block_n,
        (if cfg.split_k = 1 then 0 else cfg.block_k),
        cfg.split_k,
        cfg.swizzle )
    in
    match Hashtbl.find_opt groups key with
    | Some g -> g
    | None ->
      let g = Hashtbl.length groups in
      Hashtbl.add groups key g;
      g
  in
  let reuse_groups = Array.map group configs in
  let t =
    {
      configs;
      checked = Array.make len false;
      threads = Array.make len 0;
      regs = Array.make len 0;
      smem = Array.make len 0;
      stores = Array.make len 0.;
      staged = Array.make len 0;
      fragments = Array.make len 0;
      fmas = Array.make len 0;
      reuse_groups;
      groups = Hashtbl.length groups;
      occupancy = Atomic.make [];
    }
  in
  Array.iteri
    (fun i cfg ->
      if Result.is_ok (check cfg) then begin
        let bm, bn, bk = (cfg.block_m, cfg.block_n, cfg.block_k) in
        let bd = block_dim cfg in
        let tm = if cfg.use_tensor_core then 0 else cfg.warp_m / 4 in
        let tn = if cfg.use_tensor_core then 0 else cfg.warp_n / 8 in
        t.checked.(i) <- true;
        t.threads.(i) <- bd;
        t.regs.(i) <- regs_per_thread cfg;
        t.smem.(i) <- 4 * cfg.stages * (bm + bn) * bk;
        t.stores.(i) <- 4. *. float_of_int (bm * bn / bd);
        t.staged.(i) <- (bm * bk / bd) + (bk * bn / bd);
        t.fragments.(i) <- bk * (tm + tn);
        t.fmas.(i) <- bk * tm * tn
      end)
    configs;
  t

(* The resident blocks of each config on [d], computed once per device and
   published through an [Atomic] (a domain that loses the race to publish
   looks again). *)
let rec occupancy t (d : Hidet_gpu.Device.t) =
  let known = Atomic.get t.occupancy in
  match List.assoc_opt d known with
  | Some blocks -> blocks
  | None ->
    let blocks =
      Array.mapi
        (fun i block_dim ->
          match
            Hidet_gpu.Perf_model.blocks_per_sm_limit d ~block_dim
              ~smem:t.smem.(i) ~regs:t.regs.(i)
          with
          | Ok blocks -> blocks
          | Error _ -> 0)
        t.threads
    in
    if Atomic.compare_and_set t.occupancy known ((d, blocks) :: known) then
      blocks
    else occupancy t d

(* [configs] holds [t]'s configs, the same values in the same order. *)
let same_configs t configs =
  t.configs == configs
  || Array.length configs = Array.length t.configs
     && Array.for_all2 ( == ) configs t.configs

(* Per-thread floors of what [compile] below emits: block 0 runs [trips]
   k-tiles (the pipeline's preloaded tiles are left out), staging its
   share of each A and B tile through shared memory; the CUDA-core path
   then reads [tm + tn] fragment words per kk and issues [tm * tn] FMAs
   (the tensor-core MMAs are left out); the writeback stores its share of
   the block tile once. The barriers, registers and L2 reuse are exact. *)
let lower_bound ?(batch = 1) ?a_batched ?b_batched ?terms:given
    (d : Hidet_gpu.Device.t) ~m ~n ~k configs =
  let t =
    match given with
    | None -> terms configs
    | Some t when same_configs t configs -> t
    | Some _ -> invalid_arg "Matmul_template.lower_bound: terms of other configs"
  in
  let blocks_per_sm = occupancy t d in
  (* Each reuse group's reuse, at the window it was last computed at (0:
     not yet). The window is the group's grid's, capped at the device's
     reuse window, unless an SM count times the resident blocks is
     smaller, which no device model has: so each group's closed form runs
     once per call. *)
  let windows = Array.make t.groups 0 and group_reuse = Array.make t.groups 1. in
  let floors =
    Hidet_gpu.Perf_model.lower_bounds d (Array.length configs)
      (fun i (l : Hidet_gpu.Perf_model.launch) w ->
        (* 0 for a config [check] refuses: it has no threads *)
        l.blocks_per_sm <- blocks_per_sm.(i);
        if l.blocks_per_sm > 0 then begin
          let cfg = configs.(i) in
          let trips = trips ~k cfg in
          let f = float_of_int in
          let staged = f (trips * t.staged.(i)) in
          let grid =
            batch * cfg.split_k * ceil_div m cfg.block_m
            * ceil_div n cfg.block_n
          in
          let window =
            Hidet_gpu.Perf_model.reuse_window d ~grid_dim:grid
              ~blocks_per_sm:l.blocks_per_sm
          and g = t.reuse_groups.(i) in
          if windows.(g) <> window then begin
            windows.(g) <- window;
            group_reuse.(g) <-
              closed_form_reuse ~batch ~a_batched ~b_batched ~m ~n ~k
                ~window cfg
          end;
          l.grid <- grid;
          l.block_dim <- t.threads.(i);
          l.stages <- cfg.stages;
          w.reuse <- group_reuse.(g);
          w.load_bytes <- 4. *. staged;
          w.store_bytes <- t.stores.(i);
          w.shared_bytes <- 4. *. (staged +. f (trips * t.fragments.(i)));
          w.flops <- 2. *. f (trips * t.fmas.(i));
          w.syncs <- f (barriers ~stages:cfg.stages trips)
        end)
  in
  let reduce_latency = reduce_latency d ~batch ~m ~n in
  for i = 0 to Array.length configs - 1 do
    let split_k = configs.(i).split_k in
    if not t.checked.(i) then floors.(i) <- 0. (* [compile] rejects it: never skip it *)
    else if split_k > 1 then floors.(i) <- floors.(i) +. reduce_latency split_k
  done;
  floors

let lets bindings body =
  List.fold_right (fun (v, e) acc -> Stmt.let_ v e acc) bindings body

let compile ?(batch = 1) ?(a_batched = true) ?(b_batched = false) ~m ~n ~k cfg =
  (match check cfg with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Matmul_template.compile: %s" e));
  let ( +: ) = Expr.add and ( -: ) = Expr.sub and ( *: ) = Expr.mul in
  let ( /: ) = Expr.div and ( %: ) = Expr.modulo and ( <: ) = Expr.lt in
  let bm, bn, bk = (cfg.block_m, cfg.block_n, cfg.block_k) in
  let warps_n = cfg.block_n / cfg.warp_n in
  let bd = block_dim cfg in
  let gm = ceil_div m bm and gn = ceil_div n bn in
  let kt_total = ceil_div k bk in
  let chunk = ceil_div kt_total cfg.split_k in
  let grid = batch * cfg.split_k * gm * gn in
  (* Buffers. *)
  let a_buf =
    Buffer.create "A" (if a_batched then [ batch; m; k ] else [ m; k ])
  in
  let b_buf = Buffer.create "B" (if b_batched then [ batch; k; n ] else [ k; n ]) in
  let c_buf = Buffer.create "C" [ batch; m; n ] in
  let cp_buf =
    if cfg.split_k > 1 then Some (Buffer.create "Cp" [ cfg.split_k; batch; m; n ])
    else None
  in
  let db = cfg.stages in
  let smem_a = Buffer.create ~scope:Buffer.Shared "SmemA" [ db; bm; bk ] in
  let smem_b = Buffer.create ~scope:Buffer.Shared "SmemB" [ db; bk; bn ] in
  let a_map = Option.get (load_mapping ~rows:bm ~cols:bk ~threads:bd) in
  let b_map = Option.get (load_mapping ~rows:bk ~cols:bn ~threads:bd) in
  let regs_a = Buffer.create ~scope:Buffer.Register "RegsA" (L.local_shape a_map) in
  let regs_b = Buffer.create ~scope:Buffer.Register "RegsB" (L.local_shape b_map) in
  let tm_, tn_ = (cfg.warp_m / 4, cfg.warp_n / 8) in
  let c_map = M.(repeat [ tm_; tn_ ] *> spatial [ 4; 8 ]) in
  (* Per-kk operand fragments cached in registers: each thread loads its
     tm_ rows of A and tn_ cols of B once per kk and performs tm_*tn_ FMAs
     from registers (the standard register-blocked sgemm inner loop). *)
  let row_map = M.(repeat [ tm_ ] *> spatial [ 4 ]) in
  let col_map = M.(repeat [ tn_ ] *> spatial [ 8 ]) in
  let regs_af = Buffer.create ~scope:Buffer.Register "RegsAF" [ tm_ ] in
  let regs_bf = Buffer.create ~scope:Buffer.Register "RegsBF" [ tn_ ] in
  let regs_c = Buffer.create ~scope:Buffer.Register "RegsC" [ tm_; tn_ ] in
  let c_frag = Buffer.create ~scope:Buffer.Warp "CFrag" [ cfg.warp_m; cfg.warp_n ] in
  let wb_map = M.(repeat [ cfg.warp_m / 4; cfg.warp_n / 8 ] *> spatial [ 4; 8 ]) in
  (* Block-index decomposition: bid = ((b * split_k + z) * gm + im) * gn + jn. *)
  let v_b = Var.fresh "b" and v_z = Var.fresh "z" in
  let v_im = Var.fresh "im" and v_jn = Var.fresh "jn" in
  let v_row0 = Var.fresh "row0" and v_col0 = Var.fresh "col0" in
  let v_w = Var.fresh "w" and v_lane = Var.fresh "lane" in
  let v_wm = Var.fresh "wm" and v_wn = Var.fresh "wn" in
  let v_kstart = Var.fresh "kstart" and v_trips = Var.fresh "trips" in
  let bid = Expr.Block_idx and tid = Expr.Thread_idx in
  (* The header's bindings, innermost first. A value that is already a
     literal or a variable is used in place rather than bound, as
     [Simplify] would inline it. A [trips] of 0 or 1 is the exception: as
     a literal, [Stmt.for_] would fold the main loop before [Simplify]
     simplifies its body, and [Simplify] folds it after. *)
  let bindings = ref [] in
  let bind v (e : Expr.t) =
    match e with
    | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> e
    | _ ->
      bindings := (v, e) :: !bindings;
      Expr.var v
  in
  (* Block-index decomposition for im/jn, optionally swizzled: neighboring
     linear block ids then share operand panels, which the latency model
     credits as L2 reuse (Traffic.block_reuse). *)
  let im_value, jn_value =
    let r = bid %: Expr.int (gm * gn) in
    if not cfg.swizzle then (bid /: Expr.int gn %: Expr.int gm, bid %: Expr.int gn)
    else if gm mod 4 = 0 then
      (* Panelized swizzle: walk 4 block-rows per column before advancing. *)
      let within = r %: Expr.int (4 * gn) in
      let pid = r /: Expr.int (4 * gn) in
      ((pid *: Expr.int 4) +: (within %: Expr.int 4), within /: Expr.int 4)
    else
      (* Column-major launch order. *)
      (r %: Expr.int gm, r /: Expr.int gm)
  in
  let jn = bind v_jn jn_value in
  let im = bind v_im im_value in
  let z = bind v_z (bid /: Expr.int (gm * gn) %: Expr.int cfg.split_k) in
  let b = bind v_b (bid /: Expr.int (gm * gn * cfg.split_k)) in
  let row0 = bind v_row0 (im *: Expr.int bm) in
  let col0 = bind v_col0 (jn *: Expr.int bn) in
  let w = bind v_w (tid /: Expr.int 32) in
  let lane = bind v_lane (tid %: Expr.int 32) in
  let wm_off = bind v_wm (w /: Expr.int warps_n *: Expr.int cfg.warp_m) in
  let wn_off = bind v_wn (w %: Expr.int warps_n *: Expr.int cfg.warp_n) in
  let kstart = bind v_kstart (z *: Expr.int chunk) in
  let trips =
    match
      Expr.max_ (Expr.int 0)
        (Expr.min_ (Expr.int chunk) (Expr.int kt_total -: kstart))
    with
    | Int (0 | 1) as e ->
      bindings := (v_trips, e) :: !bindings;
      Expr.var v_trips
    | e -> bind v_trips e
  in
  let header body = lets (List.rev !bindings) body in
  (* Predicated element loads (partial tiles read 0 outside bounds). *)
  let load_a_elem ~row ~col =
    Expr.select
      (Expr.and_ (row <: Expr.int m) (col <: Expr.int k))
      (Expr.load a_buf
         (if a_batched then [ b; row; col ] else [ row; col ]))
      (Expr.float 0.)
  in
  let load_b_elem ~row ~col =
    let idx = if b_batched then [ b; row; col ] else [ row; col ] in
    Expr.select
      (Expr.and_ (row <: Expr.int k) (col <: Expr.int n))
      (Expr.load b_buf idx) (Expr.float 0.)
  in
  (* Direct cooperative load: global -> shared (non-pipelined path). *)
  let direct_load stage k0 =
    Stmt.seq
      [
        L.on_workers a_map ~worker:tid (fun idx ->
            match idx with
            | [ i; kk ] ->
              Stmt.store smem_a [ stage; i; kk ]
                (load_a_elem ~row:(row0 +: i) ~col:(k0 +: kk))
            | _ -> assert false);
        L.on_workers b_map ~worker:tid (fun idx ->
            match idx with
            | [ kk; j ] ->
              Stmt.store smem_b [ stage; kk; j ]
                (load_b_elem ~row:(k0 +: kk) ~col:(col0 +: j))
            | _ -> assert false);
      ]
  in
  (* Pipelined path: prefetch global -> registers, later stage -> shared. *)
  let prefetch k0 =
    Stmt.seq
      [
        L.on_workers_local a_map ~worker:tid (fun ~global ~local ->
            match global with
            | [ i; kk ] ->
              Stmt.store regs_a local (load_a_elem ~row:(row0 +: i) ~col:(k0 +: kk))
            | _ -> assert false);
        L.on_workers_local b_map ~worker:tid (fun ~global ~local ->
            match global with
            | [ kk; j ] ->
              Stmt.store regs_b local (load_b_elem ~row:(k0 +: kk) ~col:(col0 +: j))
            | _ -> assert false);
      ]
  in
  let stage_regs stage =
    Stmt.seq
      [
        L.on_workers_local a_map ~worker:tid (fun ~global ~local ->
            match global with
            | [ i; kk ] -> Stmt.store smem_a [ stage; i; kk ] (Expr.load regs_a local)
            | _ -> assert false);
        L.on_workers_local b_map ~worker:tid (fun ~global ~local ->
            match global with
            | [ kk; j ] -> Stmt.store smem_b [ stage; kk; j ] (Expr.load regs_b local)
            | _ -> assert false);
      ]
  in
  (* Block MMA: accumulate the block tile from stage [p] of shared memory. *)
  let compute stage =
    if cfg.use_tensor_core then
      Stmt.seq
        (List.concat
           (List.init (cfg.warp_m / 16) (fun i ->
                List.concat
                  (List.init (cfg.warp_n / 16) (fun j ->
                       List.init (bk / 8) (fun kk ->
                           Stmt.Mma
                             {
                               m = 16;
                               n = 16;
                               k = 8;
                               a = smem_a;
                               a_off = [ stage; wm_off +: Expr.int (16 * i); Expr.int (8 * kk) ];
                               b = smem_b;
                               b_off = [ stage; Expr.int (8 * kk); wn_off +: Expr.int (16 * j) ];
                               c = c_frag;
                               c_off = [ Expr.int (16 * i); Expr.int (16 * j) ];
                             }))))))
    else
      let kk = Var.fresh "kk" in
      let kke = Expr.var kk in
      Stmt.for_ kk (Expr.int bk)
        (Stmt.seq
           [
             L.on_workers_local row_map
               ~worker:(lane /: Expr.int 8)
               (fun ~global ~local ->
                 match global with
                 | [ row ] ->
                   Stmt.store regs_af local
                     (Expr.load smem_a [ stage; wm_off +: row; kke ])
                 | _ -> assert false);
             L.on_workers_local col_map
               ~worker:(lane %: Expr.int 8)
               (fun ~global ~local ->
                 match global with
                 | [ col ] ->
                   Stmt.store regs_bf local
                     (Expr.load smem_b [ stage; kke; wn_off +: col ])
                 | _ -> assert false);
             L.on_workers_local c_map ~worker:lane (fun ~global:_ ~local ->
                 match local with
                 | [ i; j ] ->
                   Stmt.store regs_c local
                     (Expr.add (Expr.load regs_c local)
                        (Expr.mul (Expr.load regs_af [ i ])
                           (Expr.load regs_bf [ j ])))
                 | _ -> assert false);
           ])
  in
  let init_acc =
    if cfg.use_tensor_core then
      L.on_workers wb_map ~worker:lane (fun idx ->
          Stmt.store c_frag idx (Expr.float 0.))
    else
      L.on_workers_local c_map ~worker:lane (fun ~global:_ ~local ->
          Stmt.store regs_c local (Expr.float 0.))
  in
  let acc_value global local =
    if cfg.use_tensor_core then Expr.load c_frag global else Expr.load regs_c local
  in
  let writeback =
    let map = if cfg.use_tensor_core then wb_map else c_map in
    L.on_workers_local map ~worker:lane (fun ~global ~local ->
        match global with
        | [ tm; tn ] ->
          let row = row0 +: wm_off +: tm and col = col0 +: wn_off +: tn in
          Stmt.if_
            (Expr.and_ (row <: Expr.int m) (col <: Expr.int n))
            (match cp_buf with
            | None -> Stmt.store c_buf [ b; row; col ] (acc_value global local)
            | Some cp -> Stmt.store cp [ z; b; row; col ] (acc_value global local))
        | _ -> assert false)
  in
  let v_kt = Var.fresh "kt" in
  let kt = Expr.var v_kt in
  let main_loop =
    if cfg.stages >= 2 then begin
      (* Software pipeline with [stages - 1] tiles in flight: prefetch tile
         kt + lookahead into registers while computing tile kt, then stage
         it into the circular shared-memory buffer. *)
      let lookahead = cfg.stages - 1 in
      let has_next = (kt +: Expr.int lookahead) <: trips in
      Stmt.seq
        (List.init lookahead (fun i ->
             Stmt.seq
               [
                 Stmt.comment (Printf.sprintf "preload k-tile %d into stage %d" i i);
                 direct_load (Expr.int i) ((kstart +: Expr.int i) *: Expr.int bk);
               ])
        @ [
            Stmt.sync;
            Stmt.for_ v_kt trips
              (Stmt.seq
                 [
                   Stmt.comment "prefetch upcoming tile into registers";
                   Stmt.if_ has_next
                     (prefetch
                        ((kstart +: kt +: Expr.int lookahead) *: Expr.int bk));
                   Stmt.comment "compute on current stage";
                   compute (kt %: Expr.int cfg.stages);
                   Stmt.comment "stage prefetched tile into shared memory";
                   Stmt.if_ has_next
                     (stage_regs ((kt +: Expr.int lookahead) %: Expr.int cfg.stages));
                   Stmt.sync;
                 ]);
          ])
    end
    else
      Stmt.for_ v_kt trips
        (Stmt.seq
           [
             direct_load (Expr.int 0) ((kstart +: kt) *: Expr.int bk);
             Stmt.sync;
             compute (Expr.int 0);
             Stmt.sync;
           ])
  in
  let body = header (Stmt.seq [ init_acc; main_loop; writeback ]) in
  let body = Simplify.stmt body in
  let name =
    "matmul_" ^ String.concat "x" (List.map string_of_int [ batch; m; n; k ])
    ^ "_" ^ config_to_string cfg
  in
  let shared = [ smem_a; smem_b ] in
  let regs =
    (if cfg.use_tensor_core then [] else [ regs_c; regs_af; regs_bf ])
    @ if cfg.stages >= 2 then [ regs_a; regs_b ] else []
  in
  let warp_bufs = if cfg.use_tensor_core then [ c_frag ] else [] in
  let params =
    match cp_buf with
    | None -> [ a_buf; b_buf; c_buf ]
    | Some cp -> [ a_buf; b_buf; cp ]
  in
  let main_kernel =
    Kernel.create ~shared ~warp_bufs ~regs ~pipeline_stages:cfg.stages ~name
      ~params ~grid_dim:grid ~block_dim:bd body
  in
  match cp_buf with
  | None ->
    {
      Compiled.name;
      kernels = [ main_kernel ];
      ins = [ a_buf; b_buf ];
      out = c_buf;
      temps = [];
    }
  | Some cp ->
    let reduce_kernel =
      splitk_reduce ~name:(name ^ "_splitk_reduce") ~batch ~m ~n
        ~split_k:cfg.split_k cp c_buf
    in
    {
      Compiled.name;
      kernels = [ main_kernel; reduce_kernel ];
      ins = [ a_buf; b_buf ];
      out = c_buf;
      temps = [ cp ];
    }
