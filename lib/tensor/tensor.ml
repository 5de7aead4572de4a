type t = { shape : int list; data : float array }

let numel_of shape = List.fold_left ( * ) 1 shape

let check_shape shape =
  if shape = [] then invalid_arg "Tensor: empty shape";
  List.iter (fun d -> if d <= 0 then invalid_arg "Tensor: non-positive dim") shape

let create shape =
  check_shape shape;
  { shape; data = Array.make (numel_of shape) 0. }

let of_array shape data =
  check_shape shape;
  if Array.length data <> numel_of shape then
    invalid_arg
      (Printf.sprintf "Tensor.of_array: %d elements for shape of %d"
         (Array.length data) (numel_of shape));
  { shape; data }

let shape t = t.shape
let numel t = Array.length t.data
let data t = t.data
let flat_get t i = t.data.(i)

let flat_index shape idx =
  if List.compare_lengths idx shape <> 0 then
    invalid_arg "Tensor: index rank mismatch";
  List.fold_left2
    (fun acc i d ->
      if i < 0 || i >= d then invalid_arg "Tensor: index out of bounds";
      (acc * d) + i)
    0 idx shape

let get t idx = t.data.(flat_index t.shape idx)
let set t idx v = t.data.(flat_index t.shape idx) <- v

(* [walk dims f] calls [f o idx] for every flat offset [o] of [dims] in
   row-major order; [idx] holds the index of [o] (one array, stepped in
   place). *)
let walk dims f =
  let r = Array.length dims in
  let idx = Array.make r 0 and o = ref 0 in
  let rec go j =
    if j = r then begin
      f !o idx;
      incr o
    end
    else
      for i = 0 to dims.(j) - 1 do
        idx.(j) <- i;
        go (j + 1)
      done
  in
  go 0

let init shape f =
  check_shape shape;
  let data = Array.make (numel_of shape) 0. in
  walk (Array.of_list shape) (fun o idx -> data.(o) <- f (Array.to_list idx));
  { shape; data }

let full shape v =
  check_shape shape;
  { shape; data = Array.make (numel_of shape) v }

let rand ?(seed = 0) shape =
  check_shape shape;
  let st = Random.State.make [| seed; numel_of shape |] in
  {
    shape;
    data = Array.init (numel_of shape) (fun _ -> Random.State.float st 2.0 -. 1.0);
  }

let reshape t new_shape =
  let n = numel t in
  let wildcards = List.filter (fun d -> d = -1) new_shape in
  let new_shape =
    match wildcards with
    | [] -> new_shape
    | [ _ ] ->
      let known = List.fold_left (fun a d -> if d = -1 then a else a * d) 1 new_shape in
      if known = 0 || n mod known <> 0 then
        invalid_arg "Tensor.reshape: cannot infer wildcard";
      List.map (fun d -> if d = -1 then n / known else d) new_shape
    | _ -> invalid_arg "Tensor.reshape: multiple wildcards"
  in
  check_shape new_shape;
  if numel_of new_shape <> n then invalid_arg "Tensor.reshape: size mismatch";
  { shape = new_shape; data = Array.copy t.data }

(* Row-major strides of [dims]. *)
let strides dims =
  let r = Array.length dims in
  let s = Array.make r 1 in
  for i = r - 2 downto 0 do
    s.(i) <- s.(i + 1) * dims.(i + 1)
  done;
  s

(* The tensor of shape [shape] whose element at index [idx] is
   [src.(base + sum_i idx_i * src_strides.(i))]. *)
let gather shape src ~base ~src_strides =
  let data = Array.make (numel_of shape) 0. in
  walk (Array.of_list shape) (fun o idx ->
      let s = ref base in
      Array.iteri (fun i x -> s := !s + (x * src_strides.(i))) idx;
      data.(o) <- src.(!s));
  { shape; data }

let transpose t perm =
  let rank = List.length t.shape in
  if List.length perm <> rank then invalid_arg "Tensor.transpose: perm rank";
  if List.sort compare perm <> List.init rank (fun i -> i) then
    invalid_arg "Tensor.transpose: not a permutation";
  let old_shape = Array.of_list t.shape in
  let old_strides = strides old_shape in
  let new_shape = List.map (fun p -> old_shape.(p)) perm in
  gather new_shape t.data ~base:0
    ~src_strides:(Array.of_list (List.map (fun p -> old_strides.(p)) perm))

let slice t windows =
  if List.length windows <> List.length t.shape then
    invalid_arg "Tensor.slice: rank mismatch";
  List.iter2
    (fun (s, l) d ->
      if s < 0 || l <= 0 || s + l > d then invalid_arg "Tensor.slice: window out of range")
    windows t.shape;
  let src_strides = strides (Array.of_list t.shape) in
  let base = List.fold_left ( + ) 0 (List.mapi (fun i (s, _) -> s * src_strides.(i)) windows) in
  gather (List.map snd windows) t.data ~base ~src_strides

(* [shape] split at [axis]: the extents before the axis, of it and after
   it. *)
let split_at shape axis =
  let part keep = numel_of (List.filteri (fun i _ -> keep i) shape) in
  (part (fun i -> i < axis), List.nth shape axis, part (fun i -> i > axis))

let concat ts ~axis =
  match ts with
  | [] -> invalid_arg "Tensor.concat: empty"
  | first :: _ ->
    let rank = List.length first.shape in
    if axis < 0 || axis >= rank then invalid_arg "Tensor.concat: bad axis";
    List.iter
      (fun t ->
        if List.length t.shape <> rank then invalid_arg "Tensor.concat: rank mismatch";
        List.iteri
          (fun i d ->
            if i <> axis && d <> List.nth first.shape i then
              invalid_arg "Tensor.concat: shape mismatch off-axis")
          t.shape)
      ts;
    let axis_total = List.fold_left (fun a t -> a + List.nth t.shape axis) 0 ts in
    let new_shape = List.mapi (fun i d -> if i = axis then axis_total else d) first.shape in
    let out = create new_shape in
    let outer, _, inner = split_at new_shape axis in
    (* Each outer row of the output is the parts' rows side by side. *)
    let o = ref 0 in
    for a = 0 to outer - 1 do
      List.iter
        (fun t ->
          let len = List.nth t.shape axis * inner in
          Array.blit t.data (a * len) out.data !o len;
          o := !o + len)
        ts
    done;
    out

let map f t = { t with data = Array.map f t.data }

(* Numpy-style broadcasting: align shapes from the right. *)
let broadcast_shapes s1 s2 =
  let r1 = List.length s1 and r2 = List.length s2 in
  let r = max r1 r2 in
  let pad s n = List.init (n - List.length s) (fun _ -> 1) @ s in
  let s1 = pad s1 r and s2 = pad s2 r in
  List.map2
    (fun a b ->
      if a = b then a
      else if a = 1 then b
      else if b = 1 then a
      else invalid_arg "Tensor: shapes not broadcastable")
    s1 s2

let rec map2 f t1 t2 =
  if t1.shape = t2.shape then
    { t1 with data = Array.init (numel t1) (fun i -> f t1.data.(i) t2.data.(i)) }
  else begin
    let out_shape = broadcast_shapes t1.shape t2.shape in
    let r = List.length out_shape in
    (* Each operand expanded to [out_shape]: a broadcast axis (extent 1)
       does not move its offset. *)
    let expand t =
      let s = Array.of_list (List.init (r - List.length t.shape) (fun _ -> 1) @ t.shape) in
      gather out_shape t.data ~base:0
        ~src_strides:(Array.mapi (fun i st -> if s.(i) = 1 then 0 else st) (strides s))
    in
    map2 f (expand t1) (expand t2)
  end

let add = map2 ( +. )
let sub = map2 ( -. )
let mul = map2 ( *. )
let relu = map (fun x -> Float.max 0. x)

let erf x =
  let sign = if x < 0. then -1. else 1. in
  let x = Float.abs x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let poly =
    ((((1.061405429 *. t) -. 1.453152027) *. t +. 1.421413741) *. t
    -. 0.284496736)
    *. t
    +. 0.254829592
  in
  sign *. (1. -. (poly *. t *. exp (-.x *. x)))

let gelu = map (fun x -> 0.5 *. x *. (1. +. erf (x /. sqrt 2.)))
let tanh_ = map tanh
let sigmoid = map (fun x -> 1. /. (1. +. exp (-.x)))

let scale_shift t ~scale ~shift ~axis =
  let outer, d, inner = split_at t.shape axis in
  if numel scale <> d || numel shift <> d then
    invalid_arg "Tensor.scale_shift: scale/shift length mismatch";
  let out = create t.shape in
  for a = 0 to outer - 1 do
    for c = 0 to d - 1 do
      let row = ((a * d) + c) * inner in
      for i = row to row + inner - 1 do
        out.data.(i) <- (t.data.(i) *. scale.data.(c)) +. shift.data.(c)
      done
    done
  done;
  out

let reduce t ~axis ~init:init_v ~f =
  let rank = List.length t.shape in
  if axis < 0 || axis >= rank then invalid_arg "Tensor.reduce: bad axis";
  let outer, d, inner = split_at t.shape axis in
  let out = create (List.mapi (fun i x -> if i = axis then 1 else x) t.shape) in
  for a = 0 to outer - 1 do
    for i = 0 to inner - 1 do
      let acc = ref init_v in
      for x = 0 to d - 1 do
        acc := f !acc t.data.((((a * d) + x) * inner) + i)
      done;
      out.data.((a * inner) + i) <- !acc
    done
  done;
  out

let sum t ~axis = reduce t ~axis ~init:0. ~f:( +. )
let mean t ~axis =
  let d = float_of_int (List.nth t.shape axis) in
  map (fun x -> x /. d) (sum t ~axis)

let max_ t ~axis = reduce t ~axis ~init:neg_infinity ~f:Float.max

let softmax t ~axis =
  let m = max_ t ~axis in
  let e = map2 (fun x mx -> exp (x -. mx)) t m in
  let s = sum e ~axis in
  map2 ( /. ) e s

let layernorm t ~gamma ~beta ~eps =
  let rank = List.length t.shape in
  let axis = rank - 1 in
  let d = List.nth t.shape axis in
  if numel gamma <> d || numel beta <> d then
    invalid_arg "Tensor.layernorm: gamma/beta length mismatch";
  let mu = mean t ~axis in
  let centered = map2 ( -. ) t mu in
  let var = mean (mul centered centered) ~axis in
  let out = create t.shape in
  for r = 0 to (numel t / d) - 1 do
    let m = mu.data.(r) and v = var.data.(r) in
    for c = 0 to d - 1 do
      let o = (r * d) + c in
      out.data.(o) <-
        (gamma.data.(c) *. (t.data.(o) -. m) /. sqrt (v +. eps)) +. beta.data.(c)
    done
  done;
  out

(* [m,k] x [k,n] from offsets [ao] of [a] and [bo] of [b] into offset [o]
   of [out]: one sum per output element, over [p] in order from 0. *)
let matmul_into out o a ao b bo m k n =
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0. in
      for p = 0 to k - 1 do
        acc := !acc +. (a.(ao + (i * k) + p) *. b.(bo + (p * n) + j))
      done;
      out.(o + (i * n) + j) <- !acc
    done
  done

let matmul a b =
  (* A batch arm is [bs] rank-2 products; an operand without a batch dim is
     shared by all of them. *)
  let batched bs m k n ~a_step ~b_step =
    let out = create [ bs; m; n ] in
    for bi = 0 to bs - 1 do
      matmul_into out.data (bi * m * n) a.data (bi * a_step) b.data (bi * b_step) m k n
    done;
    out
  in
  match (a.shape, b.shape) with
  | [ m; k ], [ k'; n ] when k = k' ->
    let out = create [ m; n ] in
    matmul_into out.data 0 a.data 0 b.data 0 m k n;
    out
  | [ m; k ], [ bs; k'; n ] when k = k' -> batched bs m k n ~a_step:0 ~b_step:(k * n)
  | [ bs; m; k ], [ k'; n ] when k = k' -> batched bs m k n ~a_step:(m * k) ~b_step:0
  | [ bs; m; k ], [ bs'; k'; n ] when k = k' && bs = bs' ->
    batched bs m k n ~a_step:(m * k) ~b_step:(k * n)
  | _ -> invalid_arg "Tensor.matmul: incompatible shapes"

let conv_out_dim h k stride padding = ((h + (2 * padding) - k) / stride) + 1

let conv2d_hw x w ~stride ~pad_h ~pad_w =
  match (x.shape, w.shape) with
  | [ n; c; h; wd ], [ oc; c'; kh; kw ] when c = c' ->
    let oh = conv_out_dim h kh stride pad_h in
    let ow = conv_out_dim wd kw stride pad_w in
    let out = create [ n; oc; oh; ow ] in
    let o = ref 0 in
    for ni = 0 to n - 1 do
      for oci = 0 to oc - 1 do
        for ohi = 0 to oh - 1 do
          for owi = 0 to ow - 1 do
            let acc = ref 0. in
            for ci = 0 to c - 1 do
              for khi = 0 to kh - 1 do
                let hi = (ohi * stride) + khi - pad_h in
                if hi >= 0 && hi < h then begin
                  let xrow = ((((ni * c) + ci) * h) + hi) * wd in
                  let wrow = ((((oci * c) + ci) * kh) + khi) * kw in
                  for kwi = 0 to kw - 1 do
                    let wi = (owi * stride) + kwi - pad_w in
                    if wi >= 0 && wi < wd then
                      acc := !acc +. (x.data.(xrow + wi) *. w.data.(wrow + kwi))
                  done
                end
              done
            done;
            out.data.(!o) <- !acc;
            incr o
          done
        done
      done
    done;
    out
  | _ -> invalid_arg "Tensor.conv2d: expected NCHW x OIHW with matching C"

let conv2d x w ~stride ~padding = conv2d_hw x w ~stride ~pad_h:padding ~pad_w:padding

let depthwise_conv2d x w ~stride ~padding =
  match (x.shape, w.shape) with
  | [ n; c; h; wd ], [ c'; 1; kh; kw ] when c = c' ->
    let oh = conv_out_dim h kh stride padding in
    let ow = conv_out_dim wd kw stride padding in
    let out = create [ n; c; oh; ow ] in
    let o = ref 0 in
    for ni = 0 to n - 1 do
      for ci = 0 to c - 1 do
        for ohi = 0 to oh - 1 do
          for owi = 0 to ow - 1 do
            let acc = ref 0. in
            for khi = 0 to kh - 1 do
              let hi = (ohi * stride) + khi - padding in
              if hi >= 0 && hi < h then begin
                let xrow = ((((ni * c) + ci) * h) + hi) * wd in
                let wrow = ((ci * kh) + khi) * kw in
                for kwi = 0 to kw - 1 do
                  let wi = (owi * stride) + kwi - padding in
                  if wi >= 0 && wi < wd then
                    acc := !acc +. (x.data.(xrow + wi) *. w.data.(wrow + kwi))
                done
              end
            done;
            out.data.(!o) <- !acc;
            incr o
          done
        done
      done
    done;
    out
  | _ -> invalid_arg "Tensor.depthwise_conv2d: expected weight [c,1,kh,kw]"

let pool2d x ~kernel ~stride ~padding ~init:init_v ~f ~finish =
  match x.shape with
  | [ n; c; h; w ] ->
    let oh = conv_out_dim h kernel stride padding in
    let ow = conv_out_dim w kernel stride padding in
    let out = create [ n; c; oh; ow ] in
    let o = ref 0 in
    for plane = 0 to (n * c) - 1 do
      for ohi = 0 to oh - 1 do
        for owi = 0 to ow - 1 do
          let acc = ref init_v in
          for khi = 0 to kernel - 1 do
            let hi = (ohi * stride) + khi - padding in
            if hi >= 0 && hi < h then
              for kwi = 0 to kernel - 1 do
                let wi = (owi * stride) + kwi - padding in
                if wi >= 0 && wi < w then
                  acc := f !acc x.data.((((plane * h) + hi) * w) + wi)
              done
          done;
          out.data.(!o) <- finish !acc;
          incr o
        done
      done
    done;
    out
  | _ -> invalid_arg "Tensor.pool2d: expected NCHW"

let maxpool2d x ~kernel ~stride ~padding =
  pool2d x ~kernel ~stride ~padding ~init:neg_infinity ~f:Float.max
    ~finish:Fun.id

let avgpool2d x ~kernel ~stride ~padding =
  (* Count includes padding positions, matching the PyTorch default. *)
  pool2d x ~kernel ~stride ~padding ~init:0. ~f:( +. ) ~finish:(fun acc ->
      acc /. float_of_int (kernel * kernel))

let global_avgpool x =
  match x.shape with
  | [ n; c; h; w ] ->
    let out = create [ n; c; 1; 1 ] in
    for plane = 0 to (n * c) - 1 do
      let acc = ref 0. in
      for i = plane * h * w to ((plane + 1) * h * w) - 1 do
        acc := !acc +. x.data.(i)
      done;
      out.data.(plane) <- !acc /. float_of_int (h * w)
    done;
    out
  | _ -> invalid_arg "Tensor.global_avgpool: expected NCHW"

let im2col_hw x ~kh ~kw ~stride ~pad_h ~pad_w =
  match x.shape with
  | [ n; c; h; w ] ->
    let oh = conv_out_dim h kh stride pad_h in
    let ow = conv_out_dim w kw stride pad_w in
    let rows = c * kh * kw and cols = oh * ow in
    let out = create [ n; rows; cols ] in
    let o = ref 0 in
    for ni = 0 to n - 1 do
      for row = 0 to rows - 1 do
        let ci = row / (kh * kw) in
        let khi = row / kw mod kh in
        let kwi = row mod kw in
        for col = 0 to cols - 1 do
          let ohi = col / ow and owi = col mod ow in
          let hi = (ohi * stride) + khi - pad_h in
          let wi = (owi * stride) + kwi - pad_w in
          if hi >= 0 && hi < h && wi >= 0 && wi < w then
            out.data.(!o) <- x.data.((((((ni * c) + ci) * h) + hi) * w) + wi);
          incr o
        done
      done
    done;
    out
  | _ -> invalid_arg "Tensor.im2col: expected NCHW"

let im2col x ~kernel ~stride ~padding =
  im2col_hw x ~kh:kernel ~kw:kernel ~stride ~pad_h:padding ~pad_w:padding

let max_abs_diff a b =
  if a.shape <> b.shape then invalid_arg "Tensor.max_abs_diff: shape mismatch";
  let m = ref 0. in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.data.(i)))) a.data;
  !m

let allclose ?(rtol = 1e-4) ?(atol = 1e-5) a b =
  a.shape = b.shape
  && Array.for_all2
       (fun x y -> Float.abs (x -. y) <= atol +. (rtol *. Float.abs y))
       a.data b.data
