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

let perturbed = "perturbed report fails its gate"

(* Per experiment: (test name, path, replacement value, failing gate). *)
let cases =
  [
    (* tensor-reduce at 2 devices, the best 2-device plan *)
    ( Reported.shard,
      [ (perturbed, [ K "sweep"; I 1; K "estimate"; K "speedup" ], Json.Num 1.0, ">= 1.6x at 2 devices") ]
    );
    ( Reported.tune,
      [
        ( "branch-and-bound winner differs from exhaustive",
          [ K "shapes"; I 0; K "cycle"; K "bnb"; K "best_config" ],
          Json.Str "b64x64x8_w32x32",
          "exhaustive winner under cycle on 123x77x45" );
        (* the first shape's cycle-model tune measuring everything *)
        ( "cycle branch-and-bound measuring too much fails its gate",
          [ K "shapes"; I 0; K "cycle"; K "bnb"; K "trials" ],
          Json.Num 986.,
          "fewer candidates" );
        (* the committed winner with its "swz" token dropped *)
        ( "non-widened winner fails its gate",
          [ K "widened_gate"; K "widened_best_config" ],
          Json.Str "b64x128x16_w32x64_db_tc",
          "use a widened dimension" );
      ] );
    ( Reported.fidelity,
      [ (perturbed, [ K "shapes"; I 0; K "spearman" ], Json.Num 0.1, "agree ordinally") ] );
    ( Reported.interp,
      [
        ( perturbed,
          [ K "workloads"; I 0; K "compiled_stmts_per_s" ],
          Json.Num 1.0,
          "slower than legacy" );
      ] );
    (* the first sweep row is the lowest rate with batching on *)
    ( Reported.serve,
      [ (perturbed, [ K "sweep"; I 0; K "stats"; K "shed" ], Json.Num 1., "at low load must meet") ]
    );
  ]

let () =
  Alcotest.run "reports"
    (List.map
       (fun ((e : Report.t), perturbations) ->
         ( e.Report.name,
           Alcotest.test_case "committed report passes its gates" `Quick
             (test_committed e)
           :: List.map
                (fun (name, path, v, gate) ->
                  Alcotest.test_case name `Quick (test_perturbed e path v ~gate))
                perturbations ))
       cases)
