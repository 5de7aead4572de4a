(* Kernels and checks for phased barrier execution, shared by the closure
   ([test_compile_exec]) and native ([test_exec_ocaml]) suites. A phased
   kernel runs one barrier interval at a time, threads in ascending order;
   these cases hold it to the reference interpreter's fiber schedule. *)

open Hidet_ir
module Interp = Hidet_gpu.Interp
module Launch = Hidet_gpu.Launch
module Metrics = Hidet_obs.Metrics
module Plan = Hidet_runtime.Plan

let phased_blocks = Metrics.counter "sim.phased_blocks"
let reference_blocks = Metrics.counter "sim.reference_blocks"
let native_units = Metrics.counter "sim.native.units"
let statements = Metrics.counter "sim.statements"
let tid = Expr.Thread_idx

let plan_kernels (plan : Plan.t) =
  List.concat_map
    (fun (s : Plan.step) -> s.compiled.Hidet_sched.Compiled.kernels)
    plan.Plan.steps

let dev = Hidet_gpu.Device.rtx3090

(* Every kernel of every engine's plan of every tiny model, [Loop_sched]'s
   (AutoTVM, Ansor) included. *)
let tiny_kernels () =
  let module E = Hidet_runtime.Engine in
  let engines : (module E.S) list =
    [
      (module Hidet_baselines.Library_engine.Pytorch);
      (module Hidet_baselines.Library_engine.Ort);
      (module Hidet_baselines.Library_engine.Tensorrt);
      (module Hidet_baselines.Input_centric.Autotvm);
      (module Hidet_baselines.Input_centric.Ansor);
      (module Hidet.Hidet_engine);
    ]
  in
  List.concat_map
    (fun (model, mk) ->
      List.concat_map
        (fun (module Eng : E.S) ->
          List.map
            (fun k -> (Printf.sprintf "%s/%s/%s" Eng.name model k.Kernel.name, k))
            (plan_kernels (Eng.compile dev (mk ())).E.plan))
        engines)
    Hidet_models.Models.tiny_all

(* Every kernel with a barrier must be phased: a template change that sends
   one back to the reference fails here without running anything. *)
let test_coverage kernels () =
  let with_sync = ref 0 in
  List.iter
    (fun (name, (k : Kernel.t)) ->
      if Launch.has_sync k.body then begin
        incr with_sync;
        Alcotest.(check bool) (name ^ " is phased") true (Launch.phased k <> None)
      end)
    kernels;
  Alcotest.(check bool) "some kernel has a barrier" true (!with_sync > 0)

let test_zoo_coverage () =
  let module Cache = Hidet_sched.Schedule_cache in
  Cache.clear ();
  let kernels =
    List.concat_map
      (fun (model, mk) ->
        List.map
          (fun k -> (model ^ "/" ^ k.Kernel.name, k))
          (plan_kernels (fst (Hidet.Hidet_engine.compile_plan dev (mk ())))))
      Hidet_models.Models.all
  in
  Cache.clear ();
  Alcotest.(check int) "zoo plan kernels" 790 (List.length kernels);
  test_coverage kernels ()

let random_bindings (k : Kernel.t) =
  List.mapi
    (fun i (b : Buffer.t) ->
      let rng = Random.State.make [| 31 * (i + 1) |] in
      (b, Array.init (Buffer.num_elems b) (fun _ -> Random.State.float rng 4. -. 2.)))
    k.Kernel.params

(* Each tiny-model kernel with a barrier runs phased on [compile]: every
   block counts in [sim.phased_blocks], none in [sim.reference_blocks], and
   the [sim.exec] span says [phased]. *)
let test_tiny_phased compile () =
  let v = Metrics.value in
  List.iter
    (fun (name, (k : Kernel.t)) ->
      if Launch.has_sync k.body then begin
        let c = compile k in
        Alcotest.(check bool) (name ^ ": phased handle") true
          (c.Launch.barriers = Launch.Phased);
        let p0 = v phased_blocks and r0 = v reference_blocks in
        let (), events =
          Hidet_obs.Trace.with_collector (fun () ->
              try Launch.run_compiled ~workers:1 c (random_bindings k)
              with Interp.Invalid_access _ -> ())
        in
        Alcotest.(check int) (name ^ ": reference blocks") 0 (v reference_blocks - r0);
        Alcotest.(check int) (name ^ ": phased blocks") k.grid_dim
          (v phased_blocks - p0);
        Alcotest.(check bool) (name ^ ": span says phased") true
          (List.exists
             (function
               | Hidet_obs.Trace.Span { name = "sim.exec"; attrs; _ } ->
                 List.assoc_opt "barriers" attrs = Some "phased"
               | _ -> false)
             events)
      end)
    (tiny_kernels ())

(* Compile and launch a kernel with a barrier that is not phased, on one
   worker, inside a trace collector: it must get the reference's handle,
   count every block in [sim.reference_blocks], say [reference] in its
   [sim.exec] span, and build no native unit (no [sim.native.codegen]
   span, [sim.native.units] unchanged). Returns the launch's exception. *)
let run_on_reference compile (k, bindings_of) =
  let v = Metrics.value in
  let p0 = v phased_blocks and r0 = v reference_blocks and u0 = v native_units in
  let (c, raised), events =
    Hidet_obs.Trace.with_collector (fun () ->
        let c = compile k in
        (c, try Launch.run_compiled ~workers:1 c (bindings_of ()); None with e -> Some e))
  in
  Alcotest.(check bool) "not phased" true (Launch.phased k = None);
  Alcotest.(check bool) "reference handle" true (c.Launch.barriers = Launch.Reference);
  Alcotest.(check int) "reference blocks" k.grid_dim (v reference_blocks - r0);
  Alcotest.(check int) "phased blocks" 0 (v phased_blocks - p0);
  Alcotest.(check int) "native units" 0 (v native_units - u0);
  let span name attr =
    List.exists
      (function
        | Hidet_obs.Trace.Span { name = n; attrs; _ } ->
          n = name && (attr = None || List.assoc_opt "barriers" attrs = attr)
        | _ -> false)
      events
  in
  Alcotest.(check bool) "span says reference" true (span "sim.exec" (Some "reference"));
  Alcotest.(check bool) "no codegen span" false (span "sim.native.codegen" None);
  raised

(* [rt_diverge]'s barrier sits under a condition on a let-bound
   [threadIdx]: not phased, so it runs on the reference and raises
   [Interp]'s own [Barrier_divergence]. *)
let test_divergence_on_reference compile (k, bindings_of) () =
  let got = run_on_reference compile (k, bindings_of) in
  (match got with
  | Some (Interp.Barrier_divergence _) -> ()
  | _ -> Alcotest.fail "expected Barrier_divergence");
  let want = try Interp.run k (bindings_of ()); None with e -> Some e in
  Alcotest.(check bool) "Interp's exact exception" true (want = got)

(* A barrier under a [threadIdx] condition that every thread of the block
   passes: not phased, so it runs on the reference, and counts there. *)
let tid_guarded_sync () =
  let c = Buffer.create "C" [ 64 ] in
  let x = Var.fresh "x" in
  let body =
    Stmt.seq
      [
        Stmt.store c [ Expr.add (Expr.mul Expr.Block_idx (Expr.int 32)) tid ] (Expr.float 1.);
        Stmt.let_ x (Expr.div tid (Expr.int 32))
          (Stmt.if_ (Expr.eq (Expr.var x) (Expr.int 0)) Stmt.sync);
      ]
  in
  let k = Kernel.create ~name:"tid_guarded_sync" ~params:[ c ] ~grid_dim:2 ~block_dim:32 body in
  (k, fun () -> [ (c, Array.make 64 0.) ])

let test_fallback_counts compile () =
  Alcotest.(check bool) "no exception" true
    (run_on_reference compile (tid_guarded_sync ()) = None)

(* --- schedule order ------------------------------------------------------- *)

let block = 8

(* Every thread writes its slot, thread 7 then stores out of bounds before
   the first barrier and thread 3 after it. The fiber schedule raises
   thread 7's error, with threads 0-6 done with the first interval and
   nothing of the second run. *)
let oob_order () =
  let c = Buffer.create "C" [ 2 * block ] in
  let oob t = Stmt.if_ (Expr.eq tid (Expr.int t)) (Stmt.store c [ Expr.add tid (Expr.int 100) ] (Expr.float 9.)) in
  let body =
    Stmt.seq
      [
        Stmt.store c [ tid ] (Expr.add (Expr.mul tid (Expr.float 1.)) (Expr.float 1.));
        oob 7;
        Stmt.sync;
        Stmt.store c [ Expr.add tid (Expr.int block) ] (Expr.float 2.);
        oob 3;
      ]
  in
  let k = Kernel.create ~name:"oob_order" ~params:[ c ] ~grid_dim:1 ~block_dim:block body in
  (k, fun () -> [ (c, Array.make (2 * block) 0.) ])

(* The split-k shape: a uniform [For] whose extent is a [Let]-bound
   [blockIdx] expression, with barriers under a uniform [If], so some
   iterations run no barrier and their code joins the next interval. The
   shared slot each thread reads belongs to its neighbour. *)
let split_k_shape () =
  let n = 3 * block in
  let a = Buffer.create "A" [ n ] and c = Buffer.create "C" [ n ] in
  let sm = Buffer.create ~scope:Buffer.Shared "sm" [ block ] in
  let trips = Var.fresh "trips" and kt = Var.fresh "kt" in
  let gid = Expr.add (Expr.mul Expr.Block_idx (Expr.int block)) tid in
  let next = Expr.modulo (Expr.add tid (Expr.int 1)) (Expr.int block) in
  let kte = Expr.var kt in
  let body =
    Stmt.let_ trips
      (Expr.add (Expr.modulo Expr.Block_idx (Expr.int 3)) (Expr.int 2))
      (Stmt.for_ kt (Expr.var trips)
         (Stmt.seq
            [
              Stmt.store sm [ tid ] (Expr.add (Expr.load a [ gid ]) (Expr.load sm [ next ]));
              Stmt.if_
                (Expr.eq (Expr.modulo kte (Expr.int 2)) (Expr.int 0))
                (Stmt.seq
                   [
                     Stmt.sync;
                     Stmt.store c [ gid ]
                       (Expr.add (Expr.load c [ gid ]) (Expr.load sm [ next ]));
                     Stmt.sync;
                   ])
                ~else_:(Stmt.store c [ gid ] (Expr.mul (Expr.load c [ gid ]) (Expr.float 0.5)));
              Stmt.store sm [ tid ] (Expr.add (Expr.load sm [ tid ]) kte);
            ]))
  in
  let k =
    Kernel.create ~shared:[ sm ] ~name:"split_k_shape" ~params:[ a; c ] ~grid_dim:3
      ~block_dim:block body
  in
  ( k,
    fun () ->
      [
        (a, Array.init n (fun i -> float_of_int ((i * 7) mod 11) -. 5.));
        (c, Array.make n 1.);
      ] )

(* Each iteration's tail writes the thread's shared slot and the next
   iteration's head reads the neighbour's, with no barrier between: thread
   [t] reads slot [t + 1] before thread [t + 1] rewrites it. *)
let tail_to_head () =
  let iters = 4 in
  let c = Buffer.create "C" [ iters * block ] in
  let sm = Buffer.create ~scope:Buffer.Shared "sm" [ block ] in
  let i = Var.fresh "i" in
  let ie = Expr.var i in
  let next = Expr.modulo (Expr.add tid (Expr.int 1)) (Expr.int block) in
  let body =
    Stmt.for_ i (Expr.int iters)
      (Stmt.seq
         [
           Stmt.store c [ Expr.add (Expr.mul ie (Expr.int block)) tid ] (Expr.load sm [ next ]);
           Stmt.sync;
           Stmt.store sm [ tid ]
             (Expr.add (Expr.mul tid (Expr.float 10.)) (Expr.add ie (Expr.float 1.)));
         ])
  in
  let k = Kernel.create ~shared:[ sm ] ~name:"tail_to_head" ~params:[ c ] ~grid_dim:1 ~block_dim:block body in
  (k, fun () -> [ (c, Array.make (iters * block) 0.) ])

(* --- rebound variables ------------------------------------------------------ *)

(* The IR allows binding one variable in several [Let]s. Here a per-thread
   [Let] of [x] shadows a uniform one and guards a barrier: only thread 0
   reaches it, so [Interp] raises [Barrier_divergence]. The inner binding
   must not count as uniform, so the kernel runs on the reference. *)
let rebound_nested () =
  let c = Buffer.create "C" [ 2 * block ] in
  let x = Var.fresh "x" in
  let gid = Expr.add (Expr.mul Expr.Block_idx (Expr.int block)) tid in
  let body =
    Stmt.let_ x Expr.Block_idx
      (Stmt.seq
         [
           Stmt.store c [ gid ] (Expr.add (Expr.var x) (Expr.float 1.));
           Stmt.let_ x tid (Stmt.if_ (Expr.eq (Expr.var x) (Expr.int 0)) Stmt.sync);
         ])
  in
  let k = Kernel.create ~name:"rebound_nested" ~params:[ c ] ~grid_dim:2 ~block_dim:block body in
  (k, fun () -> [ (c, Array.make (2 * block) 0.) ])

(* Sibling [Let]s of [x]: a uniform one guarding a barrier, then a load of
   the neighbour's slot spanning a barrier. Each thread must read the slot
   when its own [Let] runs, after the threads before it in the interval
   have stored, so the kernel runs on the reference. *)
let rebound_sibling () =
  let n = 2 * block in
  let c = Buffer.create "C" [ n ] and d = Buffer.create "D" [ n ] in
  let x = Var.fresh "x" in
  let base = Expr.mul Expr.Block_idx (Expr.int block) in
  let gid = Expr.add base tid in
  let next = Expr.add base (Expr.modulo (Expr.add tid (Expr.int 1)) (Expr.int block)) in
  let body =
    Stmt.seq
      [
        Stmt.let_ x (Expr.modulo Expr.Block_idx (Expr.int 2))
          (Stmt.seq
             [
               Stmt.store c [ gid ] (Expr.add (Expr.var x) (Expr.mul tid (Expr.float 1.)));
               Stmt.if_ (Expr.eq (Expr.var x) (Expr.int 0)) Stmt.sync;
             ]);
        Stmt.store c [ gid ] (Expr.add (Expr.load c [ gid ]) (Expr.float 10.));
        Stmt.let_ x (Expr.load c [ next ])
          (Stmt.seq [ Stmt.sync; Stmt.store d [ gid ] (Expr.var x) ]);
      ]
  in
  let k = Kernel.create ~name:"rebound_sibling" ~params:[ c; d ] ~grid_dim:2 ~block_dim:block body in
  (k, fun () -> [ (c, Array.make n 0.); (d, Array.make n 0.) ])

(* [x] and [i] rebound, every binding uniform: nested [Let]s (the inner
   value reads the outer [x]) and sibling ones, each loop holding a
   barrier. The kernel stays phased. *)
let rebound_uniform () =
  let n = 2 * block in
  let c = Buffer.create "C" [ n ] in
  let sm = Buffer.create ~scope:Buffer.Shared "sm" [ block ] in
  let x = Var.fresh "x" and i = Var.fresh "i" in
  let gid = Expr.add (Expr.mul Expr.Block_idx (Expr.int block)) tid in
  let next = Expr.modulo (Expr.add tid (Expr.int 1)) (Expr.int block) in
  let body =
    Stmt.seq
      [
        Stmt.let_ x (Expr.add (Expr.modulo Expr.Block_idx (Expr.int 2)) (Expr.int 1))
          (Stmt.for_ i (Expr.var x)
             (Stmt.seq
                [
                  Stmt.store sm [ tid ]
                    (Expr.add (Expr.load sm [ next ]) (Expr.add (Expr.var i) (Expr.float 1.)));
                  Stmt.sync;
                ]));
        Stmt.let_ x (Expr.add Expr.Block_idx (Expr.int 1))
          (Stmt.let_ x (Expr.mul (Expr.var x) (Expr.int 2))
             (Stmt.for_ i (Expr.var x)
                (Stmt.seq
                   [
                     Stmt.sync;
                     Stmt.store c [ gid ]
                       (Expr.add (Expr.load c [ gid ]) (Expr.mul (Expr.load sm [ next ]) (Expr.var x)));
                     Stmt.store sm [ tid ] (Expr.add (Expr.load sm [ tid ]) (Expr.var i));
                   ])));
      ]
  in
  let k =
    Kernel.create ~shared:[ sm ] ~name:"rebound_uniform" ~params:[ c ] ~grid_dim:2
      ~block_dim:block body
  in
  (k, fun () -> [ (c, Array.make n 0.) ])

(* Name, whether the kernel is phased, and the kernel with its bindings. *)
let cases =
  [
    ("thread 7's error first", true, oob_order);
    ("split-k shape", true, split_k_shape);
    ("loop tail to head", true, tail_to_head);
    ("per-thread let rebinding a uniform one", false, rebound_nested);
    ("sibling lets, uniform and per-thread", false, rebound_sibling);
    ("uniform lets and loops rebound", true, rebound_uniform);
  ]

let bits = Int64.bits_of_float

(* [run] and [Interp.run] raise the same exception, or none, and leave the
   bound arrays bit-equal. Returns the statements [run] executed. *)
let check_against_interp ~phased run (k, bindings_of) =
  let go run =
    let bs = bindings_of () in
    let r = try run k bs; None with e -> Some e in
    (r, List.map (fun (_, a) -> Array.map bits a) bs)
  in
  let s0 = Metrics.value statements in
  let got = go run in
  let n = Metrics.value statements - s0 in
  Alcotest.(check bool) "phased" phased (Launch.phased k <> None);
  Alcotest.(check bool) "same exception as Interp" true (fst got = fst (go Interp.run));
  Alcotest.(check bool) "bound arrays equal Interp's" true (snd got = snd (go Interp.run));
  n

let order_case (name, phased, mk) runner =
  Alcotest.test_case name `Quick (fun () ->
      ignore (check_against_interp ~phased runner (mk ())))

(* Closure and native against [Interp], and against each other's counts. *)
let order_case_both (name, phased, mk) closure native =
  Alcotest.test_case name `Quick (fun () ->
      let n_closure = check_against_interp ~phased closure (mk ()) in
      let n_native = check_against_interp ~phased native (mk ()) in
      Alcotest.(check int) "statements" n_closure n_native)

(* The outcome of one run: the exception raised ([-] for none), the
   statements counted in [sim.statements] and the MD5 of every bound
   array's bits. *)
let outcome run (k, bindings_of) =
  let bs = bindings_of () in
  let s0 = Metrics.value statements in
  let exn = try run k bs; "-" with e -> Printexc.to_string e in
  let n = Metrics.value statements - s0 in
  let arrays =
    String.concat ";"
      (List.map
         (fun (_, a) ->
           String.concat "," (Array.to_list (Array.map (fun x -> Printf.sprintf "%Lx" (bits x)) a)))
         bs)
  in
  Printf.sprintf "%s | %d | %s" exn n (Digest.to_hex (Digest.string arrays))
