(* Prometheus text-exposition writer for the Metrics registry, plus a
   strict hand-rolled validator in the spirit of chrome_trace.check.

   Registry names like "serve.queue_wait_ms" become the metric family
   "serve_queue_wait_ms"; labeled names ("base{k=\"v\"}", see
   Metrics.labeled_name) are split back into family + labels. Histograms
   render the full cumulative _bucket / _sum / _count triple so a real
   scraper could compute the same quantiles Summary prints. *)

let sanitize name =
  let ok_first = function 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false in
  let ok = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  let b = Buffer.create (String.length name + 1) in
  String.iteri
    (fun i c ->
      if i = 0 && not (ok_first c) then Buffer.add_char b '_';
      Buffer.add_char b (if ok c then c else '_'))
    name;
  Buffer.contents b

let escape_label_value v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let fmt_value v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Json.shortest v

let render_labels labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           labels)
    ^ "}"

type family = {
  fam : string;  (* sanitized family name *)
  kind : string;  (* "counter" | "gauge" | "histogram" *)
  mutable members : ((string * string) list * Metrics.snapshot) list;  (* reversed *)
}

let snapshot_kind = function
  | Metrics.Counter _ -> "counter"
  | Metrics.Gauge _ -> "gauge"
  | Metrics.Histogram _ -> "histogram"

let of_dump dump =
  (* Group by sanitized family. dump is sorted by full registry name but
     a family's members need not be adjacent there ("base_total" sorts
     between "base" and "base{...}"), so group via a table and render in
     first-appearance order, members in dump (= sorted) order. *)
  let order = ref [] in
  let families : (string, family) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (name, snap) ->
      let base, labels = Metrics.split_labels name in
      let fam = sanitize base in
      match Hashtbl.find_opt families fam with
      | None ->
        let f = { fam; kind = snapshot_kind snap; members = [ (labels, snap) ] } in
        Hashtbl.replace families fam f;
        order := f :: !order
      | Some f ->
        (* Mixed kinds under one family would be an invalid exposition;
           the first-registered kind wins and later mismatches are
           dropped (the registry itself forbids this for identical
           names, so it only arises across label variants). *)
        if f.kind = snapshot_kind snap then f.members <- (labels, snap) :: f.members)
    dump;
  let b = Buffer.create 4096 in
  let samples = ref 0 in
  let sample name labels v =
    Buffer.add_string b (Printf.sprintf "%s%s %s\n" name (render_labels labels) v);
    incr samples
  in
  List.iter
    (fun f ->
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" f.fam f.kind);
      List.iter
        (fun (labels, snap) ->
          match snap with
          | Metrics.Counter n -> sample f.fam labels (string_of_int n)
          | Metrics.Gauge v -> sample f.fam labels (fmt_value v)
          | Metrics.Histogram h ->
            let cum = ref 0 in
            Array.iteri
              (fun i bound ->
                cum := !cum + h.Metrics.counts.(i);
                sample (f.fam ^ "_bucket")
                  (labels @ [ ("le", fmt_value bound) ])
                  (string_of_int !cum))
              h.Metrics.bounds;
            sample (f.fam ^ "_bucket")
              (labels @ [ ("le", "+Inf") ])
              (string_of_int h.Metrics.total);
            sample (f.fam ^ "_sum") labels (fmt_value h.Metrics.sum);
            sample (f.fam ^ "_count") labels (string_of_int h.Metrics.total))
        (List.rev f.members))
    (List.rev !order);
  (Buffer.contents b, !samples)

let save path =
  let s, n = of_dump (Metrics.dump ()) in
  Atomic_file.write path (fun oc -> output_string oc s);
  n

(* --- validator --------------------------------------------------------- *)

let valid_metric_name n =
  n <> ""
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       n

(* Parse one sample line: name[{labels}] value *)
let parse_sample line =
  let n = String.length line in
  let pos = ref 0 in
  while !pos < n && (match line.[!pos] with
                     | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
                     | _ -> false) do
    incr pos
  done;
  let name = String.sub line 0 !pos in
  if not (valid_metric_name name) then Error "invalid metric name"
  else begin
    let labels = ref [] in
    let err = ref None in
    let fail m = if !err = None then err := Some m in
    if !pos < n && line.[!pos] = '{' then begin
      incr pos;
      let closed = ref false in
      while (not !closed) && !err = None do
        if !pos >= n then fail "unterminated label set"
        else if line.[!pos] = '}' then begin
          closed := true;
          incr pos
        end
        else begin
          let start = !pos in
          while !pos < n && line.[!pos] <> '=' do
            incr pos
          done;
          if !pos >= n then fail "label missing '='"
          else begin
            let k = String.sub line start (!pos - start) in
            if k = "" then fail "empty label name"
            else if !pos + 1 >= n || line.[!pos + 1] <> '"' then
              fail "label value must be quoted"
            else begin
              pos := !pos + 2;
              let b = Buffer.create 16 in
              let vdone = ref false in
              while (not !vdone) && !err = None do
                if !pos >= n then fail "unterminated label value"
                else
                  match line.[!pos] with
                  | '"' ->
                    vdone := true;
                    incr pos
                  | '\\' ->
                    if !pos + 1 >= n then fail "dangling escape"
                    else begin
                      (match line.[!pos + 1] with
                      | '\\' -> Buffer.add_char b '\\'
                      | '"' -> Buffer.add_char b '"'
                      | 'n' -> Buffer.add_char b '\n'
                      | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
                      pos := !pos + 2
                    end
                  | c ->
                    Buffer.add_char b c;
                    incr pos
              done;
              if !err = None then begin
                labels := (k, Buffer.contents b) :: !labels;
                if !pos < n && line.[!pos] = ',' then incr pos
                else if !pos < n && line.[!pos] <> '}' then
                  fail "expected ',' or '}' after label"
              end
            end
          end
        end
      done
    end;
    match !err with
    | Some e -> Error e
    | None ->
      let rest = String.trim (String.sub line !pos (n - !pos)) in
      if rest = "" then Error "missing value"
      else
        let value =
          match rest with
          | "+Inf" -> Some Float.infinity
          | "-Inf" -> Some Float.neg_infinity
          | "NaN" -> Some Float.nan
          | _ -> float_of_string_opt rest
        in
        (match value with
        | None -> Error (Printf.sprintf "unparseable value %S" rest)
        | Some v -> Ok (name, List.rev !labels, v))
  end

type hist_acc = {
  mutable buckets : (float * float) list;  (* le, cumulative count; reversed *)
  mutable hsum : float option;
  mutable hcount : float option;
}

let check s =
  let lines = String.split_on_char '\n' s in
  let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
  (* histogram series keyed by (family, non-le labels) *)
  let hists : (string * (string * string) list, hist_acc) Hashtbl.t =
    Hashtbl.create 32
  in
  let seen_samples : (string * (string * string) list, unit) Hashtbl.t =
    Hashtbl.create 64
  in
  let samples = ref 0 in
  let err = ref None in
  let fail lineno msg =
    if !err = None then err := Some (Printf.sprintf "line %d: %s" lineno msg)
  in
  (* family a sample belongs to, honoring histogram suffixes *)
  let family_of name =
    if Hashtbl.mem types name then Some (name, `Plain)
    else
      let strip suffix =
        let ls = String.length suffix and ln = String.length name in
        if ln > ls && String.sub name (ln - ls) ls = suffix then
          let base = String.sub name 0 (ln - ls) in
          if Hashtbl.find_opt types base = Some "histogram" then Some base else None
        else None
      in
      match strip "_bucket" with
      | Some base -> Some (base, `Bucket)
      | None -> (
        match strip "_sum" with
        | Some base -> Some (base, `Sum)
        | None -> (
          match strip "_count" with
          | Some base -> Some (base, `Count)
          | None -> None))
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line = "" then ()
      else if String.length line >= 6 && String.sub line 0 6 = "# TYPE" then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          if not (valid_metric_name name) then
            fail lineno (Printf.sprintf "invalid family name %S" name)
          else if
            not (List.mem kind [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
          then fail lineno (Printf.sprintf "unknown type %S" kind)
          else if Hashtbl.mem types name then
            fail lineno (Printf.sprintf "duplicate TYPE for %S" name)
          else Hashtbl.replace types name kind
        | _ -> fail lineno "malformed TYPE line"
      end
      else if line.[0] = '#' then ()  (* HELP and other comments *)
      else begin
        match parse_sample line with
        | Error e -> fail lineno e
        | Ok (name, labels, v) -> (
          incr samples;
          let key = (name, List.sort compare labels) in
          if Hashtbl.mem seen_samples key then
            fail lineno (Printf.sprintf "duplicate sample %S" name)
          else Hashtbl.replace seen_samples key ();
          match family_of name with
          | None -> fail lineno (Printf.sprintf "sample %S has no TYPE" name)
          | Some (base, role) -> (
            let series = List.sort compare (List.remove_assoc "le" labels) in
            let acc () =
              match Hashtbl.find_opt hists (base, series) with
              | Some a -> a
              | None ->
                let a = { buckets = []; hsum = None; hcount = None } in
                Hashtbl.replace hists (base, series) a;
                a
            in
            match role with
            | `Plain ->
              if Hashtbl.find_opt types name = Some "histogram" then
                fail lineno
                  (Printf.sprintf "histogram %S exposed without _bucket suffix" name)
            | `Bucket -> (
              match List.assoc_opt "le" labels with
              | None -> fail lineno "_bucket sample missing le label"
              | Some le ->
                let lef =
                  match le with
                  | "+Inf" -> Some Float.infinity
                  | _ -> float_of_string_opt le
                in
                (match lef with
                | None -> fail lineno (Printf.sprintf "unparseable le %S" le)
                | Some lef -> (acc ()).buckets <- (lef, v) :: (acc ()).buckets))
            | `Sum -> (acc ()).hsum <- Some v
            | `Count -> (acc ()).hcount <- Some v))
      end)
    lines;
  (* histogram series consistency *)
  Hashtbl.iter
    (fun (base, _series) a ->
      if !err = None then begin
        let buckets = List.rev a.buckets in
        let whine msg = if !err = None then err := Some (base ^ ": " ^ msg) in
        (match buckets with
        | [] -> whine "no _bucket samples"
        | _ ->
          let les = List.map fst buckets in
          let rec ascending = function
            | a :: (b :: _ as rest) -> a < b && ascending rest
            | _ -> true
          in
          if not (ascending les) then whine "le bounds not ascending";
          let counts = List.map snd buckets in
          let rec non_decreasing = function
            | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
            | _ -> true
          in
          if not (non_decreasing counts) then whine "bucket counts not cumulative";
          (match List.rev buckets with
          | (le, last) :: _ ->
            if le <> Float.infinity then whine "last bucket must be le=\"+Inf\"";
            (match a.hcount with
            | None -> whine "missing _count"
            | Some c -> if c <> last then whine "+Inf bucket does not equal _count")
          | [] -> ()));
        if a.hsum = None then whine "missing _sum"
      end)
    hists;
  match !err with Some e -> Error e | None -> Ok !samples

let check_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  check s
