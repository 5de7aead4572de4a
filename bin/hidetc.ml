(* hidetc: command-line driver for the Hidet reproduction.

   Subcommands:
     compile     — compile a model with an engine; report latency / tuning
                   cost and optionally dump the generated CUDA C
     bench       — compare all engines on one model
     profile     — per-kernel profiler table for a compiled plan
     trace-check — validate a Chrome trace-event JSON file
     models      — list the model zoo
     inspect     — print a model's computation graph
     serve       — inference serving: dynamic batching, admission control,
                   SLO metrics over compiled batch-bucket plan variants *)

open Cmdliner
module M = Hidet_models.Models
module G = Hidet_graph.Graph
module E = Hidet_runtime.Engine
module Plan = Hidet_runtime.Plan
module Profiler = Hidet_runtime.Profiler
module HE = Hidet.Hidet_engine
module Lib = Hidet_baselines.Library_engine
module IC = Hidet_baselines.Input_centric
module Obs = Hidet_obs
module Shard = Hidet_shard.Shard
module Cluster = Hidet_gpu.Cluster

let dev = Hidet_gpu.Device.rtx3090

let engines : (string * (module E.S)) list =
  [
    ("hidet", (module HE));
    ("pytorch", (module Lib.Pytorch));
    ("onnxruntime", (module Lib.Ort));
    ("tensorrt", (module Lib.Tensorrt));
    ("autotvm", (module IC.Autotvm));
    ("ansor", (module IC.Ansor));
  ]

let model_names = List.map fst M.all

let model_arg =
  let doc =
    Printf.sprintf "Model to compile: %s." (String.concat ", " model_names)
  in
  Arg.(
    required
    & opt (some (enum (List.map (fun n -> (n, n)) model_names))) None
    & info [ "model"; "m" ] ~docv:"MODEL" ~doc)

let model_opt_arg =
  let doc =
    Printf.sprintf "Model to compile: %s." (String.concat ", " model_names)
  in
  Arg.(
    value
    & opt (some (enum (List.map (fun n -> (n, n)) model_names))) None
    & info [ "model"; "m" ] ~docv:"MODEL" ~doc)

let batch_arg =
  Arg.(value & opt int 1 & info [ "batch"; "b" ] ~docv:"N" ~doc:"Batch size.")

let engine_arg =
  let doc =
    Printf.sprintf "Engine: %s." (String.concat ", " (List.map fst engines))
  in
  Arg.(
    value
    & opt (enum (List.map (fun (n, _) -> (n, n)) engines)) "hidet"
    & info [ "engine"; "e" ] ~docv:"ENGINE" ~doc)

let dump_cuda_arg =
  Arg.(
    value & flag
    & info [ "dump-cuda" ] ~doc:"Print the generated CUDA C translation unit.")

let breakdown_arg =
  Arg.(
    value & flag
    & info [ "breakdown" ]
        ~doc:"Print the per-step latency breakdown of the compiled plan.")

let report (r : E.result) =
  Printf.printf "model:        %s\n" r.E.model;
  Printf.printf "engine:       %s\n" r.E.engine;
  Printf.printf "latency:      %.3f ms (predicted, %s)\n" (r.E.latency *. 1e3)
    dev.Hidet_gpu.Device.name;
  Printf.printf "tuning cost:  %.0f simulated seconds (%.2f h), fresh\n"
    r.E.tuning_cost
    (r.E.tuning_cost /. 3600.);
  Printf.printf "tuning cost:  %.0f simulated seconds served from the schedule cache\n"
    r.E.cached_tuning_cost;
  Printf.printf "tuning wall:  %.3f s on this machine\n" r.E.tuning_wall;
  Printf.printf "compile wall: %.2f s on this machine\n" r.E.compile_wall;
  Printf.printf "kernels:      %d\n" r.E.kernel_count

(* --- observability flags ---------------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans for the whole compilation and write a Chrome \
           trace-event JSON to \\$(docv), loadable in Perfetto \
           (ui.perfetto.dev) or chrome://tracing. Tuner worker domains \
           appear as separate tracks.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print the per-kernel profiler table (latency, memory/compute \
           split, occupancy, waves, tail waste, shared memory, registers, \
           binding bottleneck) for the compiled plan.")

let summary_arg =
  Arg.(
    value & flag
    & info [ "summary" ]
        ~doc:
          "Print a human-readable span aggregation and the metrics registry \
           after compiling.")

let tuning_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tuning-log" ] ~docv:"FILE"
        ~doc:
          "Write a TSV with one record per tuning candidate (engine, \
           workload, candidate index, config, outcome, estimated latency), \
           including those the lower bound skipped (outcome pruned) — the \
           raw material of the Fig 14/15 reproductions.")

(* Install collectors per the flags, run [f], then export. [--summary]
   needs span events too, so it also turns the recorder on. *)
let with_observability ~trace ~tuning_log ~summary f =
  if tuning_log <> None then Obs.Tuning_log.start ();
  let result, events =
    if trace <> None || summary then Obs.Trace.with_collector f
    else (f (), [])
  in
  (match trace with
  | Some path ->
    Obs.Chrome_trace.save path events;
    Printf.printf "trace: wrote %d events to %s\n" (List.length events) path
  | None -> ());
  (match tuning_log with
  | Some path ->
    let records = Obs.Tuning_log.stop () in
    Obs.Tuning_log.save_tsv path records;
    Printf.printf "tuning log: wrote %d records to %s\n" (List.length records)
      path
  | None -> ());
  if summary then Format.printf "@.%a@." Obs.Summary.pp events;
  result

let print_profile ~fidelity (r : E.result) =
  Format.printf "@.%a@." (Profiler.pp ~fidelity dev) r.E.plan

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"PATH"
        ~doc:
          "Warm-start the schedule cache from \\$(docv) (if it exists) and \
           save it back after compiling, so repeated runs perform zero fresh \
           tuning trials.")

let with_schedule_cache path f =
  match path with
  | None -> f ()
  | Some path ->
    (if Sys.file_exists path then
       match Hidet_sched.Schedule_cache.load path with
       | Ok n -> Printf.printf "schedule cache: loaded %d entries from %s\n" n path
       | Error msg ->
         Printf.eprintf "schedule cache: ignoring %s (%s)\n" path msg);
    f ();
    (match Hidet_sched.Schedule_cache.save path with
    | () ->
      Printf.printf "schedule cache: saved %d entries to %s\n"
        (Hidet_sched.Schedule_cache.size ()) path
    | exception Sys_error msg ->
      Printf.eprintf "schedule cache: could not save %s (%s)\n" path msg)

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "file"; "f" ] ~docv:"PATH"
        ~doc:"Compile a graph saved in the HGF text format instead of a zoo model.")

let backend_arg =
  let doc =
    "Simulator execution backend for plan runs: $(b,closure) \
     (closure-compiling, always available) or $(b,native) (pretty-print \
     each kernel to OCaml, compile with ocamlfind ocamlopt -shared, \
     Dynlink the result; compiled entry points are memoized per process). \
     When the native toolchain is unavailable the run degrades to the \
     closure backend with the reason logged once."
  in
  Arg.(
    value
    & opt (enum [ ("closure", `Closure); ("native", `Native) ]) `Closure
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let fidelity_arg =
  let doc =
    "Latency-model fidelity: $(b,analytic) (the paper's occupancy + \
     max(mem, compute) model, the default) or $(b,cycle) \
     (cycle-approximate: per-warp coalesced transactions, shared-memory \
     bank conflicts, a set-associative L1/L2 cache model and a \
     latency-hiding warp scheduler). Cycle mode adds coalescing/conflict/\
     cache columns to the profiler table."
  in
  Arg.(
    value
    & opt (enum [ ("analytic", `Analytic); ("cycle", `Cycle) ]) `Analytic
    & info [ "fidelity" ] ~docv:"MODE" ~doc)

(* The hidet compile options that --fidelity selects. A baseline engine
   ignores it, and says so. *)
let hidet_options ~engine ~fidelity =
  if engine <> "hidet" then begin
    if fidelity <> `Analytic then
      Printf.eprintf
        "note: --fidelity applies to the hidet engine (--engine %s ignores \
         it)\n"
        engine;
    HE.default_options
  end
  else { HE.default_options with HE.fidelity }

(* The named engine; "hidet" compiles with [options]. *)
let engine_with options = function
  | "hidet" ->
    (module struct
      include HE

      let compile device g = snd (HE.compile_plan ~options device g)
    end : E.S)
  | name -> List.assoc name engines

(* --- multi-device sharding flags ------------------------------------------- *)

let devices_arg =
  Arg.(
    value & opt int 1
    & info [ "devices"; "d" ] ~docv:"N"
        ~doc:
          "Shard across \\$(docv) simulated devices (NVLink-class ring \
           interconnect). With N = 1 everything runs single-device as \
           before; with N > 1 the graph is partitioned per $(b,--parallel) \
           and compiled once per device under deterministic-reduction \
           options, and host-side collectives are billed through the \
           cluster's latency-bandwidth cost model.")

let parallel_arg =
  let doc =
    "Partitioning strategy for $(b,--devices) > 1: $(b,data) (split the \
     leading batch dim; bit-exact), $(b,tensor) / $(b,tensor-gather) \
     (column-parallel over the dominant matmul, all-gather epilogue; \
     bit-exact), $(b,tensor-reduce) (row-parallel split-k, all-reduce \
     epilogue; ULP-bounded, not bit-exact), or $(b,pipeline) (stage the \
     graph, stream $(b,--microbatches) microbatches; bit-exact)."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("data", `Data);
             ("tensor", `Tensor_gather);
             ("tensor-gather", `Tensor_gather);
             ("tensor-reduce", `Tensor_reduce);
             ("pipeline", `Pipeline);
           ])
        `Data
    & info [ "parallel"; "p" ] ~docv:"STRATEGY" ~doc)

let microbatches_arg =
  Arg.(
    value & opt int 4
    & info [ "microbatches" ] ~docv:"M"
        ~doc:
          "Microbatches streamed through the stages under \
           $(b,--parallel pipeline).")

let strategy_of ~microbatches = function
  | `Data -> Shard.Data
  | `Tensor_gather -> Shard.Tensor Shard.Gather
  | `Tensor_reduce -> Shard.Tensor Shard.Reduce
  | `Pipeline -> Shard.Pipeline { microbatches }

let report_shard shard =
  let e = Shard.estimate shard in
  Printf.printf "sharding:     %s\n" (Shard.describe shard);
  Printf.printf "fragments:    %d compiled per-device plans\n"
    (Shard.fragment_count shard);
  Printf.printf "compute:      %.3f ms critical-path across %d devices\n"
    (e.Shard.compute *. 1e3) e.Shard.devices;
  Printf.printf "collectives:  %.3f ms under the %s link model\n"
    (e.Shard.comm *. 1e3)
    (Shard.cluster shard).Cluster.name;
  Printf.printf "total:        %.3f ms sharded vs %.3f ms single-device\n"
    (e.Shard.total *. 1e3)
    (e.Shard.baseline *. 1e3);
  Printf.printf "speedup:      %.2fx (cost model)\n" e.Shard.speedup;
  Array.iteri
    (fun i busy ->
      Printf.printf "  device %d:   %.3f ms busy\n" i (busy *. 1e3))
    e.Shard.per_device;
  match Shard.schedule shard with
  | [] -> ()
  | sched ->
    print_endline "pipeline schedule (virtual time, us):";
    List.iter
      (fun (s : Shard.stage_exec) ->
        Printf.printf
          "  stage %d  micro %d  device %d  %9.1f -> %9.1f\n" s.Shard.stage
          s.Shard.micro s.Shard.device (s.Shard.start *. 1e6)
          (s.Shard.finish *. 1e6))
      sched

(* Random inputs -> run sharded and single-device baseline -> compare
   under the strategy's contract (bitwise, or the ULP budget for
   tensor-reduce). Exits 1 on mismatch: the executable surface behind
   [make shard-smoke]. *)
let verify_shard ~backend shard g =
  let inputs =
    List.mapi
      (fun i id ->
        Hidet_tensor.Tensor.rand ~seed:(1009 + i) (G.node_shape g id))
      (G.input_ids g)
  in
  match Shard.verify ~backend shard inputs with
  | Ok msg ->
    Printf.printf "shard verify: %s\n" msg
  | Error msg ->
    Printf.eprintf "shard verify FAILED: %s\n" msg;
    exit 1

let graph_of model file batch =
  match file with
  | Some path -> Hidet_graph.Graph_io.load path
  | None -> (
    match model with
    | Some m -> M.by_name ~batch m
    | None -> failwith "pass --model or --file")

let compile_cmd =
  let verify_shard_arg =
    Arg.(
      value & flag
      & info [ "verify-shard" ]
          ~doc:
            "After shard planning ($(b,--devices) > 1), run the sharded \
             plan and the single-device baseline on the same random inputs \
             and compare under the strategy's equivalence contract \
             (bit-exact, or the documented ULP budget for \
             $(b,tensor-reduce)); exits non-zero on mismatch.")
  in
  let run model batch engine dump_cuda breakdown file cache trace profile
      summary tuning_log backend fidelity devices parallel microbatches
      do_verify =
    let options =
      (* Sharded compiles always use the hidet engine (see below). *)
      hidet_options
        ~engine:(if devices > 1 then "hidet" else engine)
        ~fidelity
    in
    let fidelity = options.HE.fidelity in
    let g = graph_of model file batch in
    if devices > 1 then begin
      (* Sharded compile always goes through the Hidet engine (fragments
         are tuned per device); --engine applies to single-device runs. *)
      if engine <> "hidet" then
        Printf.eprintf
          "note: --devices %d shards with the hidet engine (--engine %s \
           ignored)\n"
          devices engine;
      let strategy = strategy_of ~microbatches parallel in
      let cl = Cluster.homogeneous ~n:devices dev in
      let shard = ref None in
      with_observability ~trace ~tuning_log ~summary (fun () ->
          with_schedule_cache cache (fun () ->
              shard := Some (Shard.plan ~options ~strategy cl g)));
      let shard = Option.get !shard in
      report (Shard.baseline_result shard);
      report_shard shard;
      if do_verify then verify_shard ~backend shard g
    end
    else begin
    let (module Eng : E.S) = engine_with options engine in
    let r = ref None in
    with_observability ~trace ~tuning_log ~summary (fun () ->
        with_schedule_cache cache (fun () -> r := Some (Eng.compile dev g)));
    let r = Option.get !r in
    report r;
    if profile then print_profile ~fidelity r;
    if breakdown then begin
      print_endline "\nper-step latency breakdown (slowest first):";
      let steps =
        List.map
          (fun (s : Plan.step) ->
            (Hidet_sched.Compiled.latency ~fidelity dev s.Plan.compiled,
             s.Plan.compiled.Hidet_sched.Compiled.name))
          r.E.plan.Plan.steps
      in
      List.iter
        (fun (l, n) -> Printf.printf "  %9.1f us  %s\n" (l *. 1e6) n)
        (List.sort (fun (a, _) (b, _) -> compare b a) steps)
    end;
    if dump_cuda then print_string (Plan.cuda_source r.E.plan)
    end
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile one model (or saved graph) with one engine; with \
          $(b,--devices) N > 1, partition it across an N-device cluster \
          per $(b,--parallel) and report the shard cost model (and \
          optionally $(b,--verify-shard) equivalence).")
    Term.(
      const run $ model_opt_arg $ batch_arg $ engine_arg $ dump_cuda_arg
      $ breakdown_arg $ file_arg $ cache_arg $ trace_arg $ profile_arg
      $ summary_arg $ tuning_log_arg $ backend_arg $ fidelity_arg
      $ devices_arg $ parallel_arg $ microbatches_arg $ verify_shard_arg)

let bench_cmd =
  let run model batch cache trace summary tuning_log =
    let header =
      Printf.sprintf "%-14s %12s %10s %10s %12s %14s %8s" "engine"
        "latency(ms)" "tuning(h)" "cached(h)" "tune-wall(s)" "compile-wall(s)"
        "kernels"
    in
    print_endline header;
    with_observability ~trace ~tuning_log ~summary (fun () ->
        with_schedule_cache cache (fun () ->
            List.iter
              (fun (name, (module Eng : E.S)) ->
                let r = Eng.compile dev (M.by_name ~batch model) in
                Printf.printf "%-14s %12.3f %10.2f %10.2f %12.3f %14.2f %8d\n%!"
                  name (r.E.latency *. 1e3)
                  (r.E.tuning_cost /. 3600.)
                  (r.E.cached_tuning_cost /. 3600.)
                  r.E.tuning_wall r.E.compile_wall r.E.kernel_count)
              engines))
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Compare every engine on one model.")
    Term.(
      const run $ model_arg $ batch_arg $ cache_arg $ trace_arg $ summary_arg
      $ tuning_log_arg)

let profile_cmd =
  let measure_arg =
    Arg.(
      value & flag
      & info [ "measure" ]
          ~doc:
            "Also execute the plan once on the selected simulator backend \
             (see --backend) with random inputs and print the measured \
             per-step table: wall time, backend compile time, simulated \
             threads, IR statements executed and statements/sec (from the \
             sim.* observability counters).")
  in
  let run model batch engine file cache measure backend fidelity =
    let options = hidet_options ~engine ~fidelity in
    let g = graph_of model file batch in
    let (module Eng : E.S) = engine_with options engine in
    let r = ref None in
    with_schedule_cache cache (fun () -> r := Some (Eng.compile dev g));
    let r = Option.get !r in
    Printf.printf "%s / %s: %.3f ms predicted on %s\n" r.E.model r.E.engine
      (r.E.latency *. 1e3) dev.Hidet_gpu.Device.name;
    print_profile ~fidelity:options.HE.fidelity r;
    if measure then begin
      let inputs =
        List.mapi
          (fun i id ->
            Hidet_tensor.Tensor.rand ~seed:(97 + i) (G.node_shape g id))
          (G.input_ids g)
      in
      print_endline "measured execution (simulator):";
      Format.printf "%a@." Profiler.pp_measured
        (Profiler.measure ~backend r.E.plan inputs)
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Compile one model and print the per-kernel profiler table \
          (nsight-style: per-kernel latency, memory/compute split, \
          occupancy, waves, tail waste, resources, bottleneck; with \
          $(b,--fidelity cycle) also coalesced transactions per access, \
          bank-conflict factor and L1/L2 hit rates). With --measure, also \
          run the plan on the simulator and report measured throughput per \
          step.")
    Term.(
      const run $ model_opt_arg $ batch_arg $ engine_arg $ file_arg
      $ cache_arg $ measure_arg $ backend_arg $ fidelity_arg)

let trace_check_cmd =
  let file_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"File to validate (Chrome trace by default).")
  in
  let events_flag =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:
            "Validate a JSONL request-lifecycle event log (as written by \
             $(b,hidetc serve --events)): strict JSON per line plus \
             per-request lifecycle rules (monotone timestamps, exactly one \
             terminal event, batched/dispatched ordering).")
  in
  let prom_flag =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:
            "Validate a Prometheus text exposition (as written by \
             $(b,hidetc serve --prom)): TYPE lines, label escaping, and \
             cumulative-histogram consistency.")
  in
  let run file events prom =
    match (events, prom) with
    | true, true ->
      prerr_endline "trace-check: pass at most one of --events / --prom";
      exit 2
    | true, false -> (
      match Obs.Events.check_file file with
      | Ok (evs, reqs) ->
        Printf.printf "%s: valid event log, %d events across %d requests\n"
          file evs reqs;
        if evs = 0 then exit 1
      | Error msg ->
        Printf.eprintf "%s: invalid event log: %s\n" file msg;
        exit 1)
    | false, true -> (
      match Obs.Prom.check_file file with
      | Ok n ->
        Printf.printf "%s: valid Prometheus exposition, %d samples\n" file n;
        if n = 0 then exit 1
      | Error msg ->
        Printf.eprintf "%s: invalid exposition: %s\n" file msg;
        exit 1)
    | false, false -> (
      match Obs.Chrome_trace.check_file file with
      | Ok n ->
        Printf.printf "%s: valid Chrome trace, %d events\n" file n;
        if n = 0 then exit 1
      | Error msg ->
        Printf.eprintf "%s: invalid trace: %s\n" file msg;
        exit 1)
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate an observability artifact: a Chrome trace-event JSON \
          (as written by --trace; default), a JSONL lifecycle event log \
          ($(b,--events)), or a Prometheus exposition ($(b,--prom)); exits \
          non-zero if it fails to parse, is malformed, or is empty.")
    Term.(const run $ file_pos $ events_flag $ prom_flag)

let models_cmd =
  let run () =
    List.iter
      (fun (name, mk) ->
        let g = mk () in
        Printf.printf "%-14s %4d nodes  %7.2f GFLOPs\n" name (G.num_nodes g)
          (G.flops g /. 1e9))
      M.all
  in
  Cmd.v (Cmd.info "models" ~doc:"List the model zoo.") Term.(const run $ const ())

let export_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"PATH" ~doc:"Output file (HGF text format).")
  in
  let export_model_arg =
    let names = model_names @ List.map fst M.tiny_all in
    let doc =
      Printf.sprintf "Model to export: %s." (String.concat ", " names)
    in
    Arg.(
      required
      & opt (some (enum (List.map (fun n -> (n, n)) names))) None
      & info [ "model"; "m" ] ~docv:"MODEL" ~doc)
  in
  let run model batch out =
    let g =
      match List.assoc_opt model M.tiny_all with
      | Some mk ->
        let g = mk () in
        if batch = 1 then g else Hidet_graph.Passes.rebatch g batch
      | None -> M.by_name ~batch model
    in
    Hidet_graph.Graph_io.save g out;
    Printf.printf "wrote %s (%d nodes)\n" out (G.num_nodes g)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Serialize a zoo or tiny model to the HGF text format.")
    Term.(const run $ export_model_arg $ batch_arg $ out_arg)

let fuzz_cmd =
  let module Check = Hidet_check.Check in
  let module Oracle = Hidet_check.Oracle in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Suite seed. Case \\$(i,i) is generated from (seed, i) alone, so \
             a failure replays with the same seed plus --offset \\$(i,i) \
             --cases 1.")
  in
  let cases_arg =
    Arg.(
      value & opt int 200
      & info [ "cases" ] ~docv:"N" ~doc:"Number of cases to run.")
  in
  let max_size_arg =
    Arg.(
      value & opt int 8
      & info [ "max-size" ] ~docv:"N"
          ~doc:"Size budget: bounds tensor extents and graph depth.")
  in
  let offset_arg =
    Arg.(
      value & opt int 0
      & info [ "offset" ] ~docv:"N"
          ~doc:"Index of the first case (for replaying one case of a run).")
  in
  let paths_arg =
    let parse s =
      let names = String.split_on_char ',' s in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
          match Oracle.path_of_string (String.trim n) with
          | Some p -> go (p :: acc) rest
          | None -> Error (`Msg (Printf.sprintf "unknown path %S" n)))
      in
      go [] names
    in
    let print fmt ps =
      Format.pp_print_string fmt
        (String.concat "," (List.map Oracle.path_to_string ps))
    in
    Arg.(
      value
      & opt (conv (parse, print)) Oracle.all_paths
      & info [ "paths" ] ~docv:"P1,P2,..."
          ~doc:
            "Comma-separated lowering paths to cross-check: rule, template, \
             fused, baseline, compiled, native (default: the first five). \
             The compiled path checks the closure-compiling simulator \
             backend against the legacy interpreter bit for bit; the \
             (opt-in) native path checks the dynlinked native-code backend \
             against the closure backend bit for bit, and skips when the \
             ocamlfind/ocamlopt toolchain is unavailable.")
  in
  let inject_arg =
    Arg.(
      value & flag
      & info [ "inject-fusion-bug" ]
          ~doc:
            "Fault injection: flip on the intentional epilogue index-remap \
             bug in the fusion pass, to demonstrate that the harness \
             detects, shrinks and reports it. The run is expected to FAIL.")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Suppress the per-case progress line.")
  in
  let run seed cases max_size offset paths inject quiet trace summary =
    if inject then Hidet_fusion.Fuse.inject_index_bug := true;
    let progress =
      if quiet then None
      else
        Some
          (fun i case ->
            Printf.printf "\rcase %d/%d (%s)        %!" (i + 1)
              (offset + cases)
              (Hidet_check.Gen.case_kind case))
    in
    let s =
      with_observability ~trace ~tuning_log:None ~summary (fun () ->
          Check.run_suite ~paths ~max_size ~offset ?progress ~seed ~cases ())
    in
    if not quiet then print_newline ();
    print_string (Check.summary_to_string s);
    if not (Check.ok s) then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential correctness fuzzing: generate random computation \
          definitions and graphs, run them through the rule-based, \
          template-based, fused and loop-oriented baseline lowerings, and \
          compare every result against the CPU reference; the compiled \
          path additionally cross-checks the two simulator backends bit \
          for bit. Failures are shrunk and printed as self-contained \
          repros; exits non-zero if any check fails.")
    Term.(
      const run $ seed_arg $ cases_arg $ max_size_arg $ offset_arg $ paths_arg
      $ inject_arg $ quiet_arg $ trace_arg $ summary_arg)

let inspect_cmd =
  let run model batch =
    Format.printf "%a@." G.pp (M.by_name ~batch model)
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print a model's computation graph.")
    Term.(const run $ model_arg $ batch_arg)

let serve_cmd =
  let module S = Hidet_serve in
  let serve_model_arg =
    let doc =
      Printf.sprintf
        "Model to serve: a zoo model (%s; compile + virtual-time schedule \
         only) or a tiny test model (%s; responses are really executed and \
         verified)."
        (String.concat ", " model_names)
        (String.concat ", " (List.map fst M.tiny_all))
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "model"; "m" ] ~docv:"MODEL" ~doc)
  in
  let buckets_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8 ]
      & info [ "buckets" ] ~docv:"N,N,..."
          ~doc:
            "Batch buckets to compile plan variants for (strictly \
             increasing; 1 is always added).")
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:"Virtual executor slots; one batch runs per slot at a time.")
  in
  let rps_arg =
    Arg.(
      value & opt float 60.
      & info [ "rps" ] ~docv:"R"
          ~doc:"Open-loop offered load: Poisson arrivals per virtual second.")
  in
  let clients_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "clients" ] ~docv:"N"
          ~doc:
            "Run closed-loop instead: \\$(docv) clients each issue, wait, \
             think, repeat ($(b,--rps) is ignored).")
  in
  let think_ms_arg =
    Arg.(
      value & opt float 10.
      & info [ "think-ms" ] ~docv:"MS"
          ~doc:"Closed-loop client think time between requests.")
  in
  let duration_arg =
    Arg.(
      value & opt float 2.
      & info [ "duration" ] ~docv:"S"
          ~doc:"Virtual seconds of traffic generation.")
  in
  let deadline_ms_arg =
    Arg.(
      value & opt float 500.
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request SLO. Requests that cannot finish by their \
             deadline are shed instead of executed.")
  in
  let max_wait_ms_arg =
    Arg.(
      value & opt float 20.
      & info [ "max-wait-ms" ] ~docv:"MS"
          ~doc:
            "Batching window: a partial batch waits at most this long for \
             more requests before dispatching.")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 16
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Admission bound: arrivals beyond this queue depth are rejected.")
  in
  let max_inflight_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Per-model concurrency limit (default: the worker count).")
  in
  let scale_arg =
    Arg.(
      value & opt float 2000.
      & info [ "scale" ] ~docv:"X"
          ~doc:
            "Service-time scale: virtual service time = analytic plan \
             latency times \\$(docv). The tiny models' analytic latencies \
             are microseconds; the default makes the default $(b,--rps) \
             actually exercise queueing.")
  in
  let burst_arg =
    Arg.(
      value
      & opt (some (t3 ~sep:',' float float float)) None
      & info [ "burst" ] ~docv:"START,DUR,RPS"
          ~doc:
            "Add an open-loop Poisson overload burst of \\$(docv) extra \
             requests per second inside the window.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Seed for arrivals and request inputs. The whole run — batch \
             compositions, shed sets, timings — is a deterministic \
             function of it.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the run's stats as JSON.")
  in
  let no_batching_arg =
    Arg.(
      value & flag
      & info [ "no-batching" ]
          ~doc:"Dispatch every request alone on the bucket-1 plan.")
  in
  let virtual_arg =
    Arg.(
      value & flag
      & info [ "virtual" ]
          ~doc:
            "Virtual-time schedule only: skip really executing the batches \
             on the simulator. Forced for the big zoo models, whose graphs \
             compile but are far too large to execute.")
  in
  let no_check_arg =
    Arg.(
      value & flag
      & info [ "no-check" ]
          ~doc:
            "Skip verifying responses against the bucket-1 plan \
             ($(b,hidetc serve) exits non-zero on any mismatch).")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Write the request-lifecycle event log as JSONL: one \
             admitted/rejected/shed/batched/dispatched/executed/verified/\
             completed object per line with virtual timestamps, sorted \
             deterministically. Validate with $(b,hidetc trace-check \
             --events).")
  in
  let prom_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Write the metrics registry as a Prometheus text exposition \
             (bucket-faithful _bucket/_sum/_count histograms, per-model/\
             bucket labels). Validate with $(b,hidetc trace-check --prom).")
  in
  let flight_size_arg =
    Arg.(
      value & opt int 256
      & info [ "flight-recorder-size" ] ~docv:"N"
          ~doc:
            "Keep a ring of the last \\$(docv) lifecycle events; the first \
             deadline miss or verification mismatch freezes it into a JSON \
             dump with the offending request's full timeline. 0 disables.")
  in
  let flight_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-out" ] ~docv:"FILE"
          ~doc:
            "Where to write the flight-recorder dump if it fires (default: \
             print it to stderr).")
  in
  let run model file engine buckets workers rps clients think_ms duration
      deadline_ms max_wait_ms queue_cap max_inflight scale burst seed out
      no_batching virtual_ no_check events prom flight_size flight_out cache
      trace summary backend devices parallel microbatches =
    let options = HE.default_options in
    let source =
      match (model, file) with
      | _, Some path -> S.Registry.File path
      | Some m, None -> S.Registry.Zoo m
      | None, None -> failwith "pass --model or --file"
    in
    (* The full zoo models compile fine but have millions of simulated
       threads per kernel — executing them is not feasible; their serving
       runs are schedule-only. *)
    let virtual_ =
      virtual_
      || match model with Some m -> List.mem_assoc m M.all | None -> false
    in
    let cfg =
      {
        S.Server.batcher =
          {
            S.Batcher.buckets = List.sort_uniq compare (1 :: buckets);
            max_wait = max_wait_ms /. 1e3;
            queue_cap;
            batching = not no_batching;
          };
        workers;
        max_inflight = Option.value max_inflight ~default:workers;
        service_scale = scale;
      }
    in
    let lg =
      {
        S.Loadgen.profile =
          (match clients with
          | Some n ->
            S.Loadgen.Closed_loop { clients = n; think = think_ms /. 1e3 }
          | None -> S.Loadgen.Open_loop { rps });
        duration;
        deadline = deadline_ms /. 1e3;
        burst =
          Option.map
            (fun (start, dur, rps) -> { S.Loadgen.start; dur; rps })
            burst;
        seed;
      }
    in
    (* Event-log / flight-recorder sinks for the duration of the run. *)
    let elog =
      match events with
      | Some _ -> Some (Obs.Events.create ~capacity:(1 lsl 18) ())
      | None -> None
    in
    let flight =
      if flight_size > 0 then
        Some (Obs.Events.Flight.create ~capacity:flight_size ())
      else None
    in
    Obs.Events.set_log elog;
    Obs.Events.set_flight flight;
    let report = ref None in
    Fun.protect
      ~finally:(fun () ->
        Obs.Events.set_log None;
        Obs.Events.set_flight None)
      (fun () ->
        with_observability ~trace ~tuning_log:None ~summary (fun () ->
            with_schedule_cache cache (fun () ->
                let cluster =
                  if devices > 1 then Some (Cluster.homogeneous ~n:devices dev)
                  else None
                in
                let m =
                  S.Registry.load ?cluster
                    ~parallel:(strategy_of ~microbatches parallel)
                    ~backend ~options ~engine:(engine_with options engine)
                    ~device:dev
                    ~buckets:cfg.S.Server.batcher.S.Batcher.buckets source
                in
                Printf.printf
                  "serving %s with %s: %d plan variants (buckets %s), %d workers\n%!"
                  m.S.Registry.name m.S.Registry.engine
                  (List.length m.S.Registry.variants)
                  (String.concat ","
                     (List.map
                        (fun v -> string_of_int v.S.Registry.bucket)
                        m.S.Registry.variants))
                  workers;
                (match m.S.Registry.sharding with
                | Some s ->
                  Printf.printf "sharding %d devices: %s\n%!" devices s
                | None -> ());
                report :=
                  Some
                    (S.Server.run ~exec:(not virtual_) ~check:(not no_check)
                       cfg m lg))));
    let r = Option.get !report in
    Format.printf "%a" S.Server.pp_report r;
    (match (events, elog) with
    | Some path, Some log ->
      let evs = Obs.Events.sort_events (Obs.Events.events log) in
      Obs.Events.save_jsonl path evs;
      Printf.printf "events: wrote %d events to %s\n" (List.length evs) path;
      let d = Obs.Events.dropped log in
      if d > 0 then
        Printf.eprintf
          "events: ring dropped %d early events (raise the capacity or \
           shorten the run for a complete log)\n"
          d
    | _ -> ());
    (match prom with
    | Some path ->
      let n = Obs.Prom.save path in
      Printf.printf "prom: wrote %d samples to %s\n" n path
    | None -> ());
    let flight_fired =
      match flight with
      | Some fr when Obs.Events.Flight.fired fr ->
        (match flight_out with
        | Some path ->
          ignore (Obs.Events.Flight.save fr path);
          Printf.printf "flight recorder: fired, dump written to %s\n" path
        | None ->
          prerr_endline "flight recorder: fired";
          (match Obs.Events.Flight.dump fr with
          | Some d -> prerr_endline d
          | None -> ()));
        true
      | _ -> false
    in
    (match out with
    | Some path ->
      let json =
        Obs.Json.(
          Obj
            [
              ("model", Str (Option.value model ~default:(Option.value file ~default:"?")));
              ("engine", Str engine);
              ("seed", Num (float_of_int seed));
              ("virtual", Bool virtual_);
              ("stats", S.Server.stats_to_json r.S.Server.summary);
              ("alerts", S.Slo.verdict_to_json r.S.Server.slo);
              ("flight_fired", Bool flight_fired);
            ])
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Obs.Json.to_string json ^ "\n"));
      Printf.printf "wrote %s\n" path
    | None -> ());
    match r.S.Server.mismatches with Some n when n > 0 -> exit 1 | _ -> ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a model under synthetic load: dynamic batching over \
          compiled batch-bucket plan variants, bounded-queue admission \
          control, deadline-based shedding, and SLO percentile reporting. \
          The serving schedule runs in deterministic virtual time \
          (seed-reproducible); the decided batches are then really \
          executed on the simulator and every response is verified \
          bit-for-bit against the batch-1 plan.")
    Term.(
      const run $ serve_model_arg $ file_arg $ engine_arg $ buckets_arg
      $ workers_arg $ rps_arg $ clients_arg $ think_ms_arg $ duration_arg
      $ deadline_ms_arg $ max_wait_ms_arg $ queue_cap_arg $ max_inflight_arg
      $ scale_arg $ burst_arg $ seed_arg $ out_arg $ no_batching_arg
      $ virtual_arg $ no_check_arg $ events_arg $ prom_arg $ flight_size_arg
      $ flight_out_arg $ cache_arg $ trace_arg $ summary_arg $ backend_arg
      $ devices_arg $ parallel_arg $ microbatches_arg)

let () =
  let info =
    Cmd.info "hidetc" ~version:"1.0.0"
      ~doc:
        "OCaml reproduction of Hidet (ASPLOS 2023): task-mapping tensor \
         program compiler on a simulated GPU."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd;
            bench_cmd;
            profile_cmd;
            trace_check_cmd;
            models_cmd;
            inspect_cmd;
            export_cmd;
            fuzz_cmd;
            serve_cmd;
          ]))
