open Hidet_ir
module Compiled = Hidet_sched.Compiled

type sched = {
  tile_m : int;
  tile_n : int;
  tile_k : int;
  thread_m : int;
  thread_n : int;
  use_shared : bool;
  unroll : bool;
}

let divides a b = a > 0 && b mod a = 0

let check s ~m ~n ~k =
  let err fmt = Printf.ksprintf (fun e -> Error e) fmt in
  if not (divides s.tile_m m) then err "tile_m %d does not divide m=%d" s.tile_m m
  else if not (divides s.tile_n n) then err "tile_n %d does not divide n=%d" s.tile_n n
  else if not (divides s.tile_k k) then err "tile_k %d does not divide k=%d" s.tile_k k
  else if not (divides s.thread_m s.tile_m) then err "thread_m does not divide tile_m"
  else if not (divides s.thread_n s.tile_n) then err "thread_n does not divide tile_n"
  else
    let threads = s.tile_m / s.thread_m * (s.tile_n / s.thread_n) in
    (* TVM templates bind at least one warp per block. *)
    if threads < 32 || threads > 1024 then
      err "block of %d threads out of [32, 1024]" threads
    else if s.thread_m * s.thread_n > 160 then err "register tile too large"
    else Ok ()

let divisors_desc n =
  List.filter (fun d -> n mod d = 0) (List.init n (fun i -> n - i))

let first_valid ~m ~n ~k =
  (* Deterministic divisor search: prefer larger (but capped) tiles and
     modest register tiles, first candidate that passes [check] wins.
     [None] exactly when the space is empty (e.g. prime extents with no
     usable factorization — the paper's Fig. 16 failure mode). *)
  let cap lim xs = List.filter (fun d -> d <= lim) xs in
  let tms = cap 64 (divisors_desc m)
  and tns = cap 64 (divisors_desc n)
  and tks = cap 32 (divisors_desc k) in
  let pick () =
    List.find_map
      (fun tile_m ->
        List.find_map
          (fun tile_n ->
            List.find_map
              (fun tile_k ->
                List.find_map
                  (fun thread_m ->
                    List.find_map
                      (fun thread_n ->
                        let s =
                          { tile_m; tile_n; tile_k; thread_m; thread_n;
                            use_shared = true; unroll = false }
                        in
                        match check s ~m ~n ~k with
                        | Ok () -> Some s
                        | Error _ -> None)
                      (cap 8 (divisors_desc tile_n)))
                  (cap 8 (divisors_desc tile_m)))
              tks)
          tns)
      tms
  in
  pick ()

let sched_to_string s =
  Printf.sprintf "t%dx%dx%d_th%dx%d%s%s" s.tile_m s.tile_n s.tile_k s.thread_m
    s.thread_n
    (if s.use_shared then "_sh" else "")
    (if s.unroll then "_u" else "")

let lets bindings body =
  List.fold_right (fun (v, e) acc -> Stmt.let_ v e acc) bindings body

(* The generic loop-oriented GEMM kernel: what split/reorder/bind/cache_read
   produce. [load_a b row col] / [load_b b row col] supply operand elements
   (direct buffer loads for matmul; implicit im2col indexing for conv).
   [store_c b row col v] writes one output element. *)
let gemm_generic ~name ~batch ~ins ~out ~temps ~m ~n ~k ~load_a ~load_b
    ~store_c s =
  (match check s ~m ~n ~k with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Loop_sched.gemm %s: %s" name e));
  let ( +: ) = Expr.add and ( *: ) = Expr.mul in
  let ( /: ) = Expr.div and ( %: ) = Expr.modulo and ( <: ) = Expr.lt in
  let threads_n = s.tile_n / s.thread_n in
  let threads_m = s.tile_m / s.thread_m in
  let block_dim = threads_m * threads_n in
  let gm = m / s.tile_m and gn = n / s.tile_n in
  let grid = batch * gm * gn in
  let smem_a = Buffer.create ~scope:Buffer.Shared "LSmemA" [ s.tile_m; s.tile_k ] in
  let smem_b = Buffer.create ~scope:Buffer.Shared "LSmemB" [ s.tile_k; s.tile_n ] in
  let regs_c = Buffer.create ~scope:Buffer.Register "LRegsC" [ s.thread_m; s.thread_n ] in
  let regs_af = Buffer.create ~scope:Buffer.Register "LRegsAF" [ s.thread_m ] in
  let regs_bf = Buffer.create ~scope:Buffer.Register "LRegsBF" [ s.thread_n ] in
  let v_b = Var.fresh "b" and v_im = Var.fresh "im" and v_jn = Var.fresh "jn" in
  let v_ty = Var.fresh "ty" and v_tx = Var.fresh "tx" in
  let v_row0 = Var.fresh "row0" and v_col0 = Var.fresh "col0" in
  let bid = Expr.Block_idx and tid = Expr.Thread_idx in
  let header body =
    lets
      [
        (v_jn, bid %: Expr.int gn);
        (v_im, bid /: Expr.int gn %: Expr.int gm);
        (v_b, bid /: Expr.int (gm * gn));
        (v_ty, tid /: Expr.int threads_n);
        (v_tx, tid %: Expr.int threads_n);
        (v_row0, (Expr.var v_im *: Expr.int s.tile_m) +: (Expr.var v_ty *: Expr.int s.thread_m));
        (v_col0, (Expr.var v_jn *: Expr.int s.tile_n) +: (Expr.var v_tx *: Expr.int s.thread_n));
      ]
      body
  in
  let b_e = Expr.var v_b in
  let row0 = Expr.var v_row0 and col0 = Expr.var v_col0 in
  let tile_row0 = Expr.var v_im *: Expr.int s.tile_m in
  let tile_col0 = Expr.var v_jn *: Expr.int s.tile_n in
  (* Cooperative flat staging of a (rows x cols) strip into shared memory. *)
  let stage smem rows cols elem =
    let elems = rows * cols in
    let per_thread = (elems + block_dim - 1) / block_dim in
    let v_e = Var.fresh "e" in
    let idx = (Expr.var v_e *: Expr.int block_dim) +: tid in
    Stmt.for_ ~unroll:s.unroll v_e (Expr.int per_thread)
      (Stmt.if_
         (idx <: Expr.int elems)
         (Stmt.store smem
            [ idx /: Expr.int cols; idx %: Expr.int cols ]
            (elem (idx /: Expr.int cols) (idx %: Expr.int cols))))
  in
  let init =
    let vi = Var.fresh "i" and vj = Var.fresh "j" in
    Stmt.for_ vi (Expr.int s.thread_m)
      (Stmt.for_ vj (Expr.int s.thread_n)
         (Stmt.store regs_c [ Expr.var vi; Expr.var vj ] (Expr.float 0.)))
  in
  let v_k0 = Var.fresh "k0" in
  let k0 = Expr.var v_k0 in
  let kbase = k0 *: Expr.int s.tile_k in
  let v_kk = Var.fresh "kk" in
  let kk = Expr.var v_kk in
  (* Per-kk fragment loads, then the register FMA tile. *)
  let fragment_loads =
    let vi = Var.fresh "i" and vj = Var.fresh "j" in
    Stmt.seq
      [
        Stmt.for_ ~unroll:s.unroll vi (Expr.int s.thread_m)
          (Stmt.store regs_af [ Expr.var vi ]
             (if s.use_shared then
                Expr.load smem_a
                  [ (Expr.var v_ty *: Expr.int s.thread_m) +: Expr.var vi; kk ]
              else load_a b_e (row0 +: Expr.var vi) (kbase +: kk)));
        Stmt.for_ ~unroll:s.unroll vj (Expr.int s.thread_n)
          (Stmt.store regs_bf [ Expr.var vj ]
             (if s.use_shared then
                Expr.load smem_b
                  [ kk; (Expr.var v_tx *: Expr.int s.thread_n) +: Expr.var vj ]
              else load_b b_e (kbase +: kk) (col0 +: Expr.var vj)));
      ]
  in
  let fma =
    let vi = Var.fresh "i" and vj = Var.fresh "j" in
    Stmt.for_ ~unroll:s.unroll vi (Expr.int s.thread_m)
      (Stmt.for_ ~unroll:s.unroll vj (Expr.int s.thread_n)
         (Stmt.store regs_c
            [ Expr.var vi; Expr.var vj ]
            (Expr.add
               (Expr.load regs_c [ Expr.var vi; Expr.var vj ])
               (Expr.mul
                  (Expr.load regs_af [ Expr.var vi ])
                  (Expr.load regs_bf [ Expr.var vj ])))))
  in
  let main_iter =
    if s.use_shared then
      Stmt.seq
        [
          stage smem_a s.tile_m s.tile_k (fun r c ->
              load_a b_e (tile_row0 +: r) (kbase +: c));
          stage smem_b s.tile_k s.tile_n (fun r c ->
              load_b b_e (kbase +: r) (tile_col0 +: c));
          Stmt.sync;
          Stmt.for_ ~unroll:s.unroll v_kk (Expr.int s.tile_k)
            (Stmt.seq [ fragment_loads; fma ]);
          Stmt.sync;
        ]
    else
      Stmt.for_ ~unroll:s.unroll v_kk (Expr.int s.tile_k)
        (Stmt.seq [ fragment_loads; fma ])
  in
  let main_loop = Stmt.for_ v_k0 (Expr.int (k / s.tile_k)) main_iter in
  let writeback =
    let vi = Var.fresh "i" and vj = Var.fresh "j" in
    Stmt.for_ vi (Expr.int s.thread_m)
      (Stmt.for_ vj (Expr.int s.thread_n)
         (store_c b_e (row0 +: Expr.var vi) (col0 +: Expr.var vj)
            (Expr.load regs_c [ Expr.var vi; Expr.var vj ])))
  in
  let body = Simplify.stmt (header (Stmt.seq [ init; main_loop; writeback ])) in
  let shared = if s.use_shared then [ smem_a; smem_b ] else [] in
  let kernel =
    Kernel.create ~shared ~regs:[ regs_c; regs_af; regs_bf ] ~name
      ~params:(ins @ temps @ [ out ])
      ~grid_dim:grid ~block_dim body
  in
  { Compiled.name; kernels = [ kernel ]; ins; out; temps; key = None }

let gemm ?(batch = 1) ?(a_batched = true) ?(b_batched = false) ~m ~n ~k s =
  let a = Buffer.create "A" (if a_batched then [ batch; m; k ] else [ m; k ]) in
  let b = Buffer.create "B" (if b_batched then [ batch; k; n ] else [ k; n ]) in
  let c = Buffer.create "C" [ batch; m; n ] in
  let name =
    Printf.sprintf "loop_matmul_%dx%dx%dx%d_%s" batch m n k (sched_to_string s)
  in
  gemm_generic ~name ~batch ~ins:[ a; b ] ~out:c ~temps:[] ~m ~n ~k
    ~load_a:(fun be row col ->
      Expr.load a (if a_batched then [ be; row; col ] else [ row; col ]))
    ~load_b:(fun be row col ->
      Expr.load b (if b_batched then [ be; row; col ] else [ row; col ]))
    ~store_c:(fun be row col v -> Stmt.store c [ be; row; col ] v)
    s

let conv2d ~x_shape ~w_shape ~stride ~pad_h ~pad_w s =
  match (x_shape, w_shape) with
  | [ nb; c; h; w ], [ oc; c'; kh; kw ] when c = c' ->
    let oh = ((h + (2 * pad_h) - kh) / stride) + 1 in
    let ow = ((w + (2 * pad_w) - kw) / stride) + 1 in
    let m = oc and n = oh * ow and k = c * kh * kw in
    let x = Buffer.create "x" x_shape in
    let wt = Buffer.create "w" w_shape in
    let out = Buffer.create "y" [ nb; oc; oh; ow ] in
    let ( +: ) = Expr.add and ( -: ) = Expr.sub and ( *: ) = Expr.mul in
    let ( /: ) = Expr.div and ( %: ) = Expr.modulo in
    let name =
      Printf.sprintf "loop_conv_%dx%dx%dx%d_oc%d_k%dx%d_%s" nb c h w oc kh kw
        (sched_to_string s)
    in
    gemm_generic ~name ~batch:nb ~ins:[ x; wt ] ~out ~temps:[] ~m ~n ~k
      ~load_a:(fun _ row col ->
        (* weight element: row = oc index, col = (ci, khi, kwi) *)
        Expr.load wt
          [
            row;
            col /: Expr.int (kh * kw);
            col /: Expr.int kw %: Expr.int kh;
            col %: Expr.int kw;
          ])
      ~load_b:(fun be row col ->
        (* implicit im2col element: row = (ci, khi, kwi), col = pixel *)
        let ci = row /: Expr.int (kh * kw) in
        let khi = row /: Expr.int kw %: Expr.int kh in
        let kwi = row %: Expr.int kw in
        let hi = (col /: Expr.int ow *: Expr.int stride) +: khi -: Expr.int pad_h in
        let wi = (col %: Expr.int ow *: Expr.int stride) +: kwi -: Expr.int pad_w in
        Expr.select
          (Expr.and_
             (Expr.and_ (Expr.ge hi (Expr.int 0)) (Expr.lt hi (Expr.int h)))
             (Expr.and_ (Expr.ge wi (Expr.int 0)) (Expr.lt wi (Expr.int w))))
          (Expr.load x [ be; ci; hi; wi ])
          (Expr.float 0.))
      ~store_c:(fun be row col v ->
        Stmt.store out [ be; row; col /: Expr.int ow; col %: Expr.int ow ] v)
      s
  | _ -> invalid_arg "Loop_sched.conv2d: expected NCHW x OIHW"

type dw_sched = { dw_tile_p : int; dw_thread_p : int; dw_unroll : bool }

let dw_check s ~oh ~ow =
  let p = oh * ow in
  let err fmt = Printf.ksprintf (fun e -> Error e) fmt in
  if not (divides s.dw_tile_p p) then
    err "dw_tile_p %d does not divide %d output pixels" s.dw_tile_p p
  else if not (divides s.dw_thread_p s.dw_tile_p) then
    err "dw_thread_p does not divide dw_tile_p"
  else
    let threads = s.dw_tile_p / s.dw_thread_p in
    if threads < 1 || threads > 1024 then err "bad thread count %d" threads
    else Ok ()

let depthwise ~x_shape ~w_shape ~stride ~padding s =
  match (x_shape, w_shape) with
  | [ nb; c; h; w ], [ c'; 1; kh; kw ] when c = c' ->
    let oh = ((h + (2 * padding) - kh) / stride) + 1 in
    let ow = ((w + (2 * padding) - kw) / stride) + 1 in
    (match dw_check s ~oh ~ow with
    | Ok () -> ()
    | Error e -> invalid_arg (Printf.sprintf "Loop_sched.depthwise: %s" e));
    let p = oh * ow in
    let x = Buffer.create "x" x_shape in
    let wt = Buffer.create "w" w_shape in
    let out = Buffer.create "y" [ nb; c; oh; ow ] in
    let wregs = Buffer.create ~scope:Buffer.Register "wregs" [ kh * kw ] in
    let threads = s.dw_tile_p / s.dw_thread_p in
    let tiles = p / s.dw_tile_p in
    let grid = nb * c * tiles in
    let ( +: ) = Expr.add and ( -: ) = Expr.sub and ( *: ) = Expr.mul in
    let ( /: ) = Expr.div and ( %: ) = Expr.modulo in
    let v_b = Var.fresh "b" and v_c = Var.fresh "ci" and v_t = Var.fresh "t" in
    let bid = Expr.Block_idx and tid = Expr.Thread_idx in
    let v_kidx = Var.fresh "kidx" in
    let load_weights =
      Stmt.for_ ~unroll:s.dw_unroll v_kidx
        (Expr.int (kh * kw))
        (Stmt.store wregs [ Expr.var v_kidx ]
           (Expr.load wt
              [
                Expr.var v_c;
                Expr.int 0;
                Expr.var v_kidx /: Expr.int kw;
                Expr.var v_kidx %: Expr.int kw;
              ]))
    in
    let v_e = Var.fresh "e" and v_r0 = Var.fresh "r0" and v_r1 = Var.fresh "r1" in
    let pixel =
      (Expr.var v_t *: Expr.int s.dw_tile_p)
      +: (tid *: Expr.int s.dw_thread_p)
      +: Expr.var v_e
    in
    let acc = Buffer.create ~scope:Buffer.Register "dw_acc" [ 1 ] in
    let compute =
      let ohi = pixel /: Expr.int ow and owi = pixel %: Expr.int ow in
      let hi = (ohi *: Expr.int stride) +: Expr.var v_r0 -: Expr.int padding in
      let wi = (owi *: Expr.int stride) +: Expr.var v_r1 -: Expr.int padding in
      Stmt.seq
        [
          Stmt.store acc [ Expr.int 0 ] (Expr.float 0.);
          Stmt.for_ ~unroll:s.dw_unroll v_r0 (Expr.int kh)
            (Stmt.for_ ~unroll:s.dw_unroll v_r1 (Expr.int kw)
               (Stmt.store acc [ Expr.int 0 ]
                  (Expr.add
                     (Expr.load acc [ Expr.int 0 ])
                     (Expr.mul
                        (Expr.select
                           (Expr.and_
                              (Expr.and_ (Expr.ge hi (Expr.int 0))
                                 (Expr.lt hi (Expr.int h)))
                              (Expr.and_ (Expr.ge wi (Expr.int 0))
                                 (Expr.lt wi (Expr.int w))))
                           (Expr.load x [ Expr.var v_b; Expr.var v_c; hi; wi ])
                           (Expr.float 0.))
                        (Expr.load wregs
                           [ (Expr.var v_r0 *: Expr.int kw) +: Expr.var v_r1 ])))));
          Stmt.store out
            [ Expr.var v_b; Expr.var v_c; ohi; owi ]
            (Expr.load acc [ Expr.int 0 ]);
        ]
    in
    let body =
      lets
        [
          (v_t, bid %: Expr.int tiles);
          (v_c, bid /: Expr.int tiles %: Expr.int c);
          (v_b, bid /: Expr.int (tiles * c));
        ]
        (Stmt.seq
           [
             load_weights;
             Stmt.for_ ~unroll:s.dw_unroll v_e (Expr.int s.dw_thread_p) compute;
           ])
    in
    let name =
      Printf.sprintf "loop_dwconv_%dx%dx%dx%d_k%d_p%d_t%d" nb c h w kh
        s.dw_tile_p s.dw_thread_p
    in
    let kernel =
      Kernel.create ~regs:[ wregs; acc ] ~name ~params:[ x; wt; out ]
        ~grid_dim:grid ~block_dim:threads (Simplify.stmt body)
    in
    { Compiled.name; kernels = [ kernel ]; ins = [ x; wt ]; out; temps = []; key = None }
  | _ -> invalid_arg "Loop_sched.depthwise: expected NCHW x [c,1,kh,kw]"
