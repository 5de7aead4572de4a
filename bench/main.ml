(* Benchmark driver: runs the experiments of Hidet_bench (the paper's
   Table 1, Figures 7 and 13-19 and the ablations in Paper; the simulator
   backends, serving, sharding, tuner search and cycle fidelity in
   Reported). Each prints its report, writes it as BENCH_<id>.json and
   gates on it; the driver exits 1 if any gate fails.

   Usage:
     dune exec bench/main.exe                       # everything
     dune exec bench/main.exe -- --only fig16,tune  # some experiments
     dune exec bench/main.exe -- --list             # experiment ids
     dune exec bench/main.exe -- --quick            # smaller infrastructure runs
     dune exec bench/main.exe -- --out DIR          # where BENCH_*.json go (.)
     dune exec bench/main.exe -- --trace F          # Chrome trace of the run *)

open Hidet_bench

let experiments =
  Paper.all @ Reported.[ tune; fidelity; interp; serve; shard ]

let () =
  let args = Array.to_list Sys.argv in
  let value flag =
    let rec find = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  if List.mem "--list" args then
    List.iter (fun (e : Report.t) -> print_endline e.Report.name) experiments
  else begin
    let selected =
      match value "--only" with
      | None -> experiments
      | Some ids ->
        List.map
          (fun id ->
            match List.find_opt (fun (e : Report.t) -> e.Report.name = id) experiments with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown experiment %s (try --list)\n" id;
              exit 1)
          (String.split_on_char ',' ids)
    in
    let quick = List.mem "--quick" args in
    let out = Option.value (value "--out") ~default:"." in
    if not (Sys.file_exists out && Sys.is_directory out) then begin
      Printf.eprintf "--out %s: not a directory\n" out;
      exit 1
    end;
    let t0 = Unix.gettimeofday () in
    Printf.printf "Hidet reproduction benchmarks (device: %s)\n"
      (Format.asprintf "%a" Hidet_gpu.Device.pp Hidet_gpu.Device.rtx3090);
    let run_selected () =
      List.fold_left (fun passed e -> Report.drive ~out ~quick e && passed) true selected
    in
    (* --trace FILE: record spans for the whole run, export Chrome JSON. *)
    let passed =
      match value "--trace" with
      | None -> run_selected ()
      | Some path ->
        let passed, events = Hidet_obs.Trace.with_collector run_selected in
        Hidet_obs.Chrome_trace.save path events;
        Printf.printf "\ntrace: wrote %d events to %s\n" (List.length events) path;
        passed
    in
    Printf.printf "\nTotal benchmark wall time: %.1f s\n" (Unix.gettimeofday () -. t0);
    if not passed then exit 1
  end
