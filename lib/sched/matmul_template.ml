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
   thread handles rows*cols/threads elements via repeat ∘ spatial. *)
let load_mapping ~rows ~cols ~threads =
  if threads <= rows * cols && threads mod cols = 0 && rows mod (threads / cols) = 0
  then Some M.(repeat [ rows / (threads / cols); 1 ] *> spatial [ threads / cols; cols ])
  else if cols mod threads = 0 then
    Some M.(repeat [ rows; cols / threads ] *> spatial [ 1; threads ])
  else None

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
    if load_mapping ~rows:cfg.block_m ~cols:cfg.block_k ~threads:bd = None then
      err "no cooperative load mapping for the A tile"
    else if load_mapping ~rows:cfg.block_k ~cols:cfg.block_n ~threads:bd = None
    then err "no cooperative load mapping for the B tile"
    else if
      (not cfg.use_tensor_core)
      && cfg.warp_m / 4 * (cfg.warp_n / 8) > 128
    then err "register tile too large"
    else Ok ()

let config_to_string cfg =
  Printf.sprintf "b%dx%dx%d_w%dx%d%s%s%s%s" cfg.block_m cfg.block_n cfg.block_k
    cfg.warp_m cfg.warp_n
    (match cfg.stages with 2 -> "_db" | 3 -> "_s3" | 4 -> "_s4" | _ -> "")
    (if cfg.split_k > 1 then Printf.sprintf "_sk%d" cfg.split_k else "")
    (if cfg.use_tensor_core then "_tc" else "")
    (if cfg.swizzle then "_swz" else "")

(* Per-block floors of what [compile] below emits, in f32 words: block 0
   runs [trips] k-tiles (the split-k chunk), staging each A and B tile
   through shared memory; the CUDA-core path then reads [tm + tn] fragment
   words per thread per kk and issues [tm * tn] FMAs; the writeback stores
   the block tile once. The split-k reduce kernel costs at least a launch. *)
let lower_bound (d : Hidet_gpu.Device.t) ?(batch = 1) ~m ~n ~k cfg =
  match check cfg with
  | Error _ -> 0. (* [compile] rejects it: never skip it *)
  | Ok () ->
    let bm, bn, bk = (cfg.block_m, cfg.block_n, cfg.block_k) in
    let trips = ceil_div (ceil_div k bk) cfg.split_k in
    let bd = block_dim cfg in
    let f = float_of_int in
    let staged = f (trips * (bm + bn) * bk) in
    let fragments, fmas =
      if cfg.use_tensor_core then (0., 0.)
      else
        ( f (trips * bk * bd * ((cfg.warp_m / 4) + (cfg.warp_n / 8))),
          f (trips * bm * bn * bk) )
    in
    let main =
      Hidet_gpu.Perf_model.lower_bound d
        ~grid:(batch * cfg.split_k * ceil_div m bm * ceil_div n bn)
        ~block_dim:bd
        ~smem:(4 * cfg.stages * (bm + bn) * bk)
        ~stages:cfg.stages ~flops:(2. *. fmas)
        ~shared_bytes:(4. *. (staged +. fragments))
        ~load_bytes:(4. *. staged)
        ~store_bytes:(4. *. f (bm * bn))
    in
    if cfg.split_k > 1 then main +. d.kernel_launch_overhead else main

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
  (* Block-index decomposition for im/jn, optionally swizzled: neighboring
     linear block ids then share operand panels (better L2 locality on real
     hardware; latency-neutral in the simulator, which has no L2 model). *)
  let im_binding, jn_binding =
    let r = bid %: Expr.int (gm * gn) in
    if not cfg.swizzle then
      ((v_im, bid /: Expr.int gn %: Expr.int gm), (v_jn, bid %: Expr.int gn))
    else if gm mod 4 = 0 then
      (* Panelized swizzle: walk 4 block-rows per column before advancing. *)
      let within = r %: Expr.int (4 * gn) in
      let pid = r /: Expr.int (4 * gn) in
      ( (v_im, (pid *: Expr.int 4) +: (within %: Expr.int 4)),
        (v_jn, within /: Expr.int 4) )
    else
      (* Column-major launch order. *)
      ((v_im, r %: Expr.int gm), (v_jn, r /: Expr.int gm))
  in
  let header body =
    lets
      [
        jn_binding;
        im_binding;
        (v_z, bid /: Expr.int (gm * gn) %: Expr.int cfg.split_k);
        (v_b, bid /: Expr.int (gm * gn * cfg.split_k));
        (v_row0, Expr.var v_im *: Expr.int bm);
        (v_col0, Expr.var v_jn *: Expr.int bn);
        (v_w, tid /: Expr.int 32);
        (v_lane, tid %: Expr.int 32);
        (v_wm, Expr.var v_w /: Expr.int warps_n *: Expr.int cfg.warp_m);
        (v_wn, Expr.var v_w %: Expr.int warps_n *: Expr.int cfg.warp_n);
        (v_kstart, Expr.var v_z *: Expr.int chunk);
        ( v_trips,
          Expr.max_ (Expr.int 0)
            (Expr.min_ (Expr.int chunk) (Expr.int kt_total -: Expr.var v_kstart)) );
      ]
      body
  in
  let row0 = Expr.var v_row0 and col0 = Expr.var v_col0 in
  let lane = Expr.var v_lane in
  let wm_off = Expr.var v_wm and wn_off = Expr.var v_wn in
  (* Predicated element loads (partial tiles read 0 outside bounds). *)
  let load_a_elem ~row ~col =
    Expr.select
      (Expr.and_ (row <: Expr.int m) (col <: Expr.int k))
      (Expr.load a_buf
         (if a_batched then [ Expr.var v_b; row; col ] else [ row; col ]))
      (Expr.float 0.)
  in
  let load_b_elem ~row ~col =
    let idx = if b_batched then [ Expr.var v_b; row; col ] else [ row; col ] in
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
            | None -> Stmt.store c_buf [ Expr.var v_b; row; col ] (acc_value global local)
            | Some cp ->
              Stmt.store cp
                [ Expr.var v_z; Expr.var v_b; row; col ]
                (acc_value global local))
        | _ -> assert false)
  in
  let v_kt = Var.fresh "kt" in
  let kt = Expr.var v_kt in
  let trips = Expr.var v_trips in
  let kstart = Expr.var v_kstart in
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
    Printf.sprintf "matmul_%dx%dx%dx%d_%s" batch m n k (config_to_string cfg)
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
      key = None;
    }
  | Some cp ->
    (* Second kernel: C[b,i,j] = sum_z Cp[z,b,i,j]. *)
    let total = batch * m * n in
    let rb = 256 in
    let v_gid = Var.fresh "gid" in
    let gid = Expr.var v_gid in
    let v_zz = Var.fresh "zz" in
    let acc = Buffer.create ~scope:Buffer.Register "acc" [ 1 ] in
    let idx b_i r c = [ b_i; r; c ] in
    let reduce_body =
      Stmt.let_ v_gid
        ((Expr.mul Expr.Block_idx (Expr.int rb)) +: Expr.Thread_idx)
        (Stmt.if_ (gid <: Expr.int total)
           (Stmt.seq
              [
                Stmt.store acc [ Expr.int 0 ] (Expr.float 0.);
                Stmt.for_ ~unroll:true v_zz (Expr.int cfg.split_k)
                  (Stmt.store acc [ Expr.int 0 ]
                     (Expr.add
                        (Expr.load acc [ Expr.int 0 ])
                        (Expr.load cp
                           (Expr.var v_zz
                           :: idx
                                (gid /: Expr.int (m * n))
                                (gid /: Expr.int n %: Expr.int m)
                                (gid %: Expr.int n)))));
                Stmt.store c_buf
                  (idx
                     (gid /: Expr.int (m * n))
                     (gid /: Expr.int n %: Expr.int m)
                     (gid %: Expr.int n))
                  (Expr.load acc [ Expr.int 0 ]);
              ]))
    in
    let reduce_kernel =
      Kernel.create ~regs:[ acc ] ~name:(name ^ "_splitk_reduce")
        ~params:[ cp; c_buf ] ~grid_dim:(ceil_div total rb) ~block_dim:rb
        (Simplify.stmt reduce_body)
    in
    {
      Compiled.name;
      kernels = [ main_kernel; reduce_kernel ];
      ins = [ a_buf; b_buf ];
      out = c_buf;
      temps = [ cp ];
      key = None;
    }
