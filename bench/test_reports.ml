(* Every committed BENCH_<name>.json passes its own experiment's gates,
   perturbing the field a gate guards makes exactly that gate fail, and
   the EXPERIMENTS.md tables and prose ranges print the committed reports'
   numbers. *)

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
    (* pytorch given hidet's graph optimization *)
    ( Paper.table1,
      [ (perturbed, [ K "engines"; I 0; K "graph_opt" ], Json.Str "ooo", "only hidet combines") ] );
    ( Paper.fig7,
      [
        (* layer 19's AutoTVM space shrunk below 100x Hidet's *)
        (perturbed, [ K "layers"; I 18; K "autotvm_space" ], Json.Num 40000., ">= 100x below");
        (* layer 2's space one config off the other split-k class 2 layers' *)
        ( "a layer's space off its split-k class fails its gate",
          [ K "layers"; I 1; K "hidet_space" ],
          Json.Num 601.,
          "every split-k class 2 layer" );
      ] );
    ( Paper.fig13,
      [
        ( perturbed,
          [ K "models"; I 2; K "hidet_ms" ],
          Json.Num 0.7,
          "best baseline on mobilenet_v2" );
      ] );
    ( Paper.fig14,
      [ (perturbed, [ K "models"; I 3; K "ansor_h" ], Json.Num 1.0, "below ansor's on bert") ] );
    (* the AutoTVM sample's fastest point below Hidet's *)
    ( Paper.fig15,
      [ (perturbed, [ K "samples"; I 1; K "min_us" ], Json.Num 20., "fastest schedule") ] );
    (* AutoTVM finding a schedule at 2039 *)
    ( Paper.fig16,
      [ (perturbed, [ K "sizes"; I 5; K "autotvm_us" ], Json.Num 1000., "prime 2039") ] );
    ( Paper.fig17,
      [ (perturbed, [ K "batches"; I 2; K "hidet_ms" ], Json.Num 10., "at batch 8") ] );
    ( Paper.fig18,
      [ (perturbed, [ K "layers"; I 21; K "hidet_us" ], Json.Num 60., "on layer 22") ] );
    ( Paper.fig19,
      [ (perturbed, [ K "models"; I 3; K "tensorrt_ms" ], Json.Num 4., "beat hidet on bert") ] );
    ( Paper.ablation_double_buffer,
      [
        ( perturbed,
          [ K "shapes"; I 0; K "db_on_us" ],
          Json.Num 300.,
          "double buffering must gain > 1x on 1024x1024x1024" );
      ] );
    ( Paper.ablation_split_k,
      [
        ( perturbed,
          [ K "shapes"; I 0; K "tuned_us" ],
          Json.Num 70.,
          "split-k must gain > 1x on 512x49x4608" );
      ] );
    ( Paper.ablation_fusion,
      [
        ( perturbed,
          [ K "models"; I 1; K "fused_ms" ],
          Json.Num 6.,
          "fused must gain > 1x on bert" );
      ] );
    ( Paper.ablation_tensor_core,
      [
        ( perturbed,
          [ K "models"; I 0; K "tf32_ms" ],
          Json.Num 2.,
          "tf32 must gain > 1x on resnet50" );
      ] );
    ( Paper.ablation_device_sweep,
      [
        ( perturbed,
          [ K "matmuls"; I 1; K "a100_us" ],
          Json.Num 30.,
          "a100 must gain > 1x on 512x49x4608" );
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS.md against the committed reports                       *)
(* ------------------------------------------------------------------ *)

(* [s] with every occurrence of [sub] removed. *)
let remove sub s =
  let n = String.length sub and b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then i := !i + n
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let doc =
  lazy
    (String.split_on_char '\n'
       (In_channel.with_open_bin "../EXPERIMENTS.md" In_channel.input_all))

(* The lines of the section whose heading starts with [heading], up to the
   next heading. *)
let doc_section heading =
  let rec section = function
    | [] -> Alcotest.failf "EXPERIMENTS.md: no heading %S" heading
    | l :: rest when String.starts_with ~prefix:heading l -> rest
    | _ :: rest -> section rest
  in
  let rec take = function
    | l :: _ when String.starts_with ~prefix:"## " l -> []
    | l :: rest -> l :: take rest
    | [] -> []
  in
  take (section (Lazy.force doc))

(* The body rows of the first table in the section whose heading starts
   with [heading], as cells without bold marks or the "×" suffix. *)
let doc_table heading =
  let is_row l = String.starts_with ~prefix:"|" l in
  let rec skip = function l :: rest when not (is_row l) -> skip rest | ls -> ls in
  let rec take = function l :: rest when is_row l -> l :: take rest | _ -> [] in
  let cells l =
    let l = String.trim l in
    String.split_on_char '|' (String.sub l 1 (String.length l - 2))
    |> List.map (fun c -> String.trim (remove "**" (remove "\xc3\x97" c)))
  in
  match take (skip (doc_section heading)) with
  | _header :: _rule :: rows -> List.map cells rows
  | _ -> Alcotest.failf "EXPERIMENTS.md: no table under %S" heading

(* A report value as the doc prints it: a number with as many decimals as
   [printed] has, a tuner failure (null) as FAIL. *)
let as_printed printed = function
  | Json.Null -> "FAIL"
  | Json.Str s -> s
  | Json.Num x ->
    let decimals =
      match String.index_opt printed '.' with
      | Some i -> String.length printed - i - 1
      | None -> 0
    in
    Printf.sprintf "%.*f" decimals x
  | _ -> "?"

(* The rows of every table in a report, and the one whose first field a
   doc row's key cell names (a model, shape, size, ...). *)
let report_rows r =
  match r with
  | Json.Obj fields ->
    List.concat_map (function _, Json.Arr (Json.Obj _ :: _ as rows) -> rows | _ -> []) fields
  | _ -> []

let find_row r key =
  let names = function Json.Obj ((_, v) :: _) -> as_printed "" v = key | _ -> false in
  match List.find_opt names (report_rows r) with
  | Some row -> row
  | None -> Alcotest.failf "no report row for %s" key

(* Per doc table: its section heading, its report ([None]: the first cell
   names the report), and the report fields of its value columns. *)
let doc_tables =
  [
    ( "## Figure 13",
      Some Paper.fig13,
      [ "pytorch_ms"; "onnxruntime_ms"; "autotvm_ms"; "ansor_ms"; "hidet_ms"; "speedup" ] );
    ( "## Figure 14",
      Some Paper.fig14,
      [ "autotvm_h"; "ansor_h"; "hidet_h"; "autotvm_vs_hidet"; "ansor_vs_hidet" ] );
    ("## Figure 15", Some Paper.fig15, [ "valid"; "min_us"; "median_us"; "under_73us" ]);
    ("## Figure 16", Some Paper.fig16, [ "autotvm_us"; "ansor_us"; "hidet_us" ]);
    ("## Figure 17", Some Paper.fig17, [ "onnxruntime_ms"; "autotvm_ms"; "ansor_ms"; "hidet_ms" ]);
    ("## Figure 19", Some Paper.fig19, [ "tensorrt_ms"; "hidet_ms"; "trt_vs_hidet" ]);
    ("## Ablations", None, [ "gain" ]);
  ]

let test_doc_table (heading, report, fields) () =
  let rows = doc_table heading in
  let mismatches =
    List.concat_map
      (fun cells ->
        let r, key, values =
          match (report, cells) with
          | Some e, key :: values -> (load e, key, values)
          | None, name :: key :: values ->
            (load (List.find (fun (e : Report.t) -> e.Report.name = name) Paper.all), key, values)
          | _ -> Alcotest.fail "short doc row"
        in
        let row = find_row r key in
        List.filter_map
          (fun (f, printed) ->
            let want = as_printed printed (Report.field f row) in
            if want = printed then None
            else Some (Printf.sprintf "%s %s: %s, report %s" key f printed want))
          (List.combine fields values))
      rows
  in
  Alcotest.(check (list string)) "doc numbers that differ from the report" [] mismatches;
  Option.iter
    (fun e ->
      Alcotest.(check int) "doc rows" (List.length (report_rows (load e))) (List.length rows))
    report

(* [x] to two significant digits, as the doc writes it: 1.1e5. *)
let sig2 x =
  match String.split_on_char 'e' (Printf.sprintf "%.1e" x) with
  | [ mantissa; exp ] -> Printf.sprintf "%se%d" mantissa (int_of_string exp)
  | _ -> Alcotest.failf "sig2 %g" x

(* Per prose range: its section heading, its report, the per-layer value
   and how the doc prints the min and max of that value over the layers. *)
let doc_ranges =
  [
    ( "## Figure 18",
      Paper.fig18,
      (fun row ->
        Float.min (Report.num "onnxruntime_us" row) (Report.num "ansor_us" row)
        /. Report.num "hidet_us" row),
      fun lo hi -> Printf.sprintf "%.2f\xe2\x80\x93%.2f\xc3\x97" lo hi );
    ( "## Figure 7",
      Paper.fig7,
      Report.num "autotvm_space",
      fun lo hi -> Printf.sprintf "%s \xe2\x80\x93 %s" (sig2 lo) (sig2 hi) );
  ]

let test_doc_range (heading, report, value, printed) () =
  let values = List.map value (Report.list "layers" (load report)) in
  let range =
    printed (List.fold_left Float.min infinity values)
      (List.fold_left Float.max neg_infinity values)
  in
  if not (contains ~sub:range (String.concat "\n" (doc_section heading))) then
    Alcotest.failf "%s: the report's range %s is not in the text" heading range

(* Per section: the single-layer examples its prose quotes, each the key
   of its report row and the text the doc prints for it from the row's
   onnxruntime, ansor and hidet latencies, rounded to whole microseconds. *)
let doc_examples =
  [
    ( "## Figure 18",
      Paper.fig18,
      [
        ( "19",
          Printf.sprintf
            "#19 512\xc3\x9714\xc3\x9714 k3: ORT %s \xc2\xb5s, Ansor %s \xc2\xb5s, Hidet %s \xc2\xb5s"
        );
        ( "22",
          Printf.sprintf
            "#22 2048-channel 7\xc3\x977 1\xc3\x971: %s/%s vs %s \xc2\xb5s" );
      ] );
  ]

let test_doc_examples (heading, report, examples) () =
  (* The section as one line, every run of spaces and line breaks one space. *)
  let text =
    String.concat " "
      (List.concat_map
         (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))
         (doc_section heading))
  in
  List.iter
    (fun (key, print) ->
      let row = find_row (load report) key in
      let us f = Printf.sprintf "%.0f" (Report.num f row) in
      let want = print (us "onnxruntime_us") (us "ansor_us") (us "hidet_us") in
      if not (contains ~sub:want text) then
        Alcotest.failf "%s: the report's example \"%s\" is not in the text" heading want)
    examples

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
       cases
    @ [
        ( "EXPERIMENTS.md",
          List.map
            (fun ((heading, _, _) as t) ->
              Alcotest.test_case (heading ^ " table") `Quick (test_doc_table t))
            doc_tables
          @ List.map
              (fun ((heading, _, _, _) as r) ->
                Alcotest.test_case (heading ^ " range") `Quick (test_doc_range r))
              doc_ranges
          @ List.map
              (fun ((heading, _, _) as x) ->
                Alcotest.test_case (heading ^ " examples") `Quick (test_doc_examples x))
              doc_examples );
      ])
