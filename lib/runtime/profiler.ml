module Compiled = Hidet_sched.Compiled
module Device = Hidet_gpu.Device
module Perf_model = Hidet_gpu.Perf_model
module Traffic = Hidet_gpu.Traffic
module Kernel = Hidet_ir.Kernel
module Fidelity = Hidet_cycle.Fidelity

type row = {
  step : int;
  op : string;
  kernel : string;
  grid_dim : int;
  block_dim : int;
  latency : float;
  mem_time : float;
  compute_time : float;
  pipelined : bool;
  occupancy : float;
  waves : int;
  blocks_per_sm : int;
  tail_waste : float;
  smem_bytes : int;
  regs_per_thread : int;
  global_bytes : float;
  flops : float;
  note : string;
  cycle : Fidelity.extras option;
}

let kernel_row ?(fidelity = `Analytic) device ~step ~op (k : Kernel.t) =
  let e, cycle =
    match fidelity with
    | `Analytic -> (Perf_model.kernel device k, None)
    | `Cycle ->
      let e, x = Fidelity.kernel device k in
      (e, Some x)
  in
  let c = Traffic.kernel k in
  (* Wave quantization: the final wave launches [concurrent] block slots but
     only fills what is left of the grid. The idle fraction of all launched
     slots is the schedule's partial-tile / tail waste. *)
  let concurrent = device.Device.num_sms * e.Perf_model.blocks_per_sm in
  let tail_waste =
    if e.Perf_model.waves = 0 || concurrent = 0 then 0.
    else
      1.
      -. (float_of_int k.Kernel.grid_dim
         /. float_of_int (e.Perf_model.waves * concurrent))
  in
  let per_thread = float_of_int (k.Kernel.grid_dim * k.Kernel.block_dim) in
  {
    step;
    op;
    kernel = k.Kernel.name;
    grid_dim = k.Kernel.grid_dim;
    block_dim = k.Kernel.block_dim;
    latency = e.Perf_model.latency;
    mem_time = e.Perf_model.mem_time;
    compute_time = e.Perf_model.compute_time;
    pipelined = e.Perf_model.pipelined;
    occupancy = e.Perf_model.occupancy;
    waves = e.Perf_model.waves;
    blocks_per_sm = e.Perf_model.blocks_per_sm;
    tail_waste;
    smem_bytes = Kernel.shared_bytes k;
    regs_per_thread = Kernel.regs_per_thread k;
    global_bytes =
      (c.Traffic.global_load_bytes +. c.Traffic.global_store_bytes)
      *. per_thread;
    flops = c.Traffic.flops *. per_thread;
    note = e.Perf_model.note;
    cycle;
  }

let report ?fidelity device (plan : Plan.t) =
  List.concat
    (List.mapi
       (fun i (s : Plan.step) ->
         List.map
           (kernel_row ?fidelity device ~step:i
              ~op:s.Plan.compiled.Compiled.name)
           s.Plan.compiled.Compiled.kernels)
       plan.Plan.steps)

let total_latency rows = List.fold_left (fun a r -> a +. r.latency) 0. rows

let truncate n s = if String.length s <= n then s else String.sub s 0 (n - 1) ^ "~"

let pp_rows fmt rows =
  (* The cycle columns appear only when some row was estimated under cycle
     fidelity; the analytic table is unchanged byte for byte. *)
  let cycle_mode = List.exists (fun r -> r.cycle <> None) rows in
  Format.fprintf fmt "@[<v>";
  if cycle_mode then Format.fprintf fmt "fidelity: cycle@,";
  Format.fprintf fmt
    "%-4s %-26s %7s %6s %9s %8s %8s %5s %5s %6s %7s %7s %8s %5s " "step"
    "kernel" "grid" "block" "lat(us)" "mem(us)" "cmp(us)" "pipe" "occ%"
    "waves" "blk/SM" "waste%" "smem(B)" "regs";
  if cycle_mode then
    Format.fprintf fmt "%7s %5s %5s %5s " "txn/acc" "bank" "L1%" "L2%";
  Format.fprintf fmt "bottleneck@,";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-4d %-26s %7d %6d %9.1f %8.1f %8.1f %5s %5.0f %6d %7d %7.1f %8d %5d "
        r.step (truncate 26 r.kernel) r.grid_dim r.block_dim
        (r.latency *. 1e6) (r.mem_time *. 1e6) (r.compute_time *. 1e6)
        (if r.pipelined then "yes" else "no")
        (r.occupancy *. 100.) r.waves r.blocks_per_sm (r.tail_waste *. 100.)
        r.smem_bytes r.regs_per_thread;
      Option.iter
        (fun (x : Fidelity.extras) ->
          Format.fprintf fmt "%7.2f %5.2f %5.0f %5.0f " x.txn_per_access
            x.conflict_factor (x.l1_hit *. 100.) (x.l2_hit *. 100.))
        r.cycle;
      Format.fprintf fmt "%s@," r.note)
    rows;
  Format.fprintf fmt "%-4s %-26s %7s %6s %9.1f@,@]" "" "total" "" ""
    (total_latency rows *. 1e6)

let pp ?fidelity device fmt plan = pp_rows fmt (report ?fidelity device plan)

(* --- measured execution ---------------------------------------------------- *)

module Metrics = Hidet_obs.Metrics

type measured_row = {
  m_step : int;
  m_op : string;
  m_wall : float;
  m_threads : int;
  m_statements : int;
  m_compile_us : int;
}

let measure ?backend plan inputs =
  let threads_c = Metrics.counter "sim.threads" in
  let stmts_c = Metrics.counter "sim.statements" in
  (* Compile wall: the closure backend's compile, plus — on the native
     backend — codegen, ocamlopt and dynlink; only a kernel's first launch
     on a backend pays it. *)
  let compile_counters =
    List.map Metrics.counter
      [
        "sim.compile_us";
        "sim.native.codegen_us";
        "sim.native.ocamlopt_us";
        "sim.native.dynlink_us";
      ]
  in
  let compile_us () =
    List.fold_left (fun a c -> a + Metrics.value c) 0 compile_counters
  in
  let rows = ref [] in
  let around i (s : Plan.step) exec =
    let th0 = Metrics.value threads_c
    and st0 = Metrics.value stmts_c
    and cu0 = compile_us () in
    let t0 = Unix.gettimeofday () in
    let out = exec () in
    let wall = Unix.gettimeofday () -. t0 in
    rows :=
      {
        m_step = i;
        m_op = s.Plan.compiled.Compiled.name;
        m_wall = wall;
        m_threads = Metrics.value threads_c - th0;
        m_statements = Metrics.value stmts_c - st0;
        m_compile_us = compile_us () - cu0;
      }
      :: !rows;
    out
  in
  ignore (Plan.run1 ~around ?backend plan inputs);
  List.rev !rows

let pp_measured fmt rows =
  Format.fprintf fmt "@[<v>%-4s %-26s %10s %11s %12s %14s %14s@,"
    "step" "op" "wall(ms)" "compile(ms)" "sim.threads" "sim.stmts"
    "stmts/sec";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-4d %-26s %10.2f %11.2f %12d %14d %14.3g@," r.m_step
        (truncate 26 r.m_op) (r.m_wall *. 1e3)
        (float_of_int r.m_compile_us /. 1e3)
        r.m_threads r.m_statements
        (float_of_int r.m_statements /. r.m_wall))
    rows;
  let wall = List.fold_left (fun a r -> a +. r.m_wall) 0. rows in
  let compile_us = List.fold_left (fun a r -> a + r.m_compile_us) 0 rows in
  let stmts = List.fold_left (fun a r -> a + r.m_statements) 0 rows in
  let threads = List.fold_left (fun a r -> a + r.m_threads) 0 rows in
  Format.fprintf fmt "%-4s %-26s %10.2f %11.2f %12d %14d %14.3g@,@]" ""
    "total" (wall *. 1e3)
    (float_of_int compile_us /. 1e3)
    threads stmts
    (float_of_int stmts /. wall)
