(* Every committed BENCH_<name>.json passes its own experiment's gates,
   and perturbing the field a gate guards makes exactly that gate fail. *)

module Json = Hidet_obs.Json
open Hidet_bench

let load (e : Report.t) =
  let path = Filename.concat ".." ("BENCH_" ^ e.Report.name ^ ".json") in
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s: %s" path msg

type step = K of string | I of int

(* [set path v j]: [j] with the value at [path] replaced by [v]. *)
let rec set path v j =
  match (path, j) with
  | [], _ -> v
  | K k :: rest, Json.Obj fields ->
    if not (List.mem_assoc k fields) then Alcotest.failf "no field %s" k;
    Json.Obj (List.map (fun (k', x) -> (k', if k' = k then set rest v x else x)) fields)
  | I i :: rest, Json.Arr l ->
    if i >= List.length l then Alcotest.failf "no element %d" i;
    Json.Arr (List.mapi (fun i' x -> if i' = i then set rest v x else x) l)
  | _ -> Alcotest.fail "path does not match the report"

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_committed e () =
  Alcotest.(check (list string)) "failing gates" [] (Report.failing e (load e))

let test_perturbed e path v ~gate () =
  match Report.failing e (set path v (load e)) with
  | [ msg ] when contains ~sub:gate msg -> ()
  | failed ->
    Alcotest.failf "expected only the %S gate to fail, got [%s]" gate
      (String.concat "; " failed)

let cases =
  [
    (* tensor-reduce at 2 devices, the best 2-device plan *)
    ( Reported.shard,
      [ K "sweep"; I 1; K "estimate"; K "speedup" ],
      Json.Num 1.0,
      ">= 1.6x at 2 devices" );
    (Reported.tune, [ K "shapes"; I 0; K "latency_ratio" ], Json.Num 1.2, "within 5%");
    (Reported.fidelity, [ K "shapes"; I 0; K "spearman" ], Json.Num 0.1, "agree ordinally");
    ( Reported.interp,
      [ K "workloads"; I 0; K "compiled_stmts_per_s" ],
      Json.Num 1.0,
      "slower than legacy" );
    (* the first sweep row is the lowest rate with batching on *)
    (Reported.serve, [ K "sweep"; I 0; K "stats"; K "shed" ], Json.Num 1., "at low load must meet");
  ]

let () =
  Alcotest.run "reports"
    (List.map
       (fun ((e : Report.t), path, v, gate) ->
         ( e.Report.name,
           [
             Alcotest.test_case "committed report passes its gates" `Quick
               (test_committed e);
             Alcotest.test_case "perturbed report fails its gate" `Quick
               (test_perturbed e path v ~gate);
           ] ))
       cases)
