(* The CPU reference's operators as they were written first: every element
   read and written through an [int list] index, each output built by
   [init] over an unflattened index, the batched matmul arms by slicing,
   reshaping and concatenating copies. The library's flat-offset operators
   must agree with these bit for bit ([Int64.bits_of_float]), NaN payloads
   and signed zeros included, and raise the same exceptions. *)

module T = Hidet_tensor.Tensor

type t = { shape : int list; data : float array }

let of_tensor x = { shape = T.shape x; data = Array.copy (T.data x) }

let numel_of shape = List.fold_left ( * ) 1 shape

let check_shape shape =
  if shape = [] then invalid_arg "Tensor: empty shape";
  List.iter (fun d -> if d <= 0 then invalid_arg "Tensor: non-positive dim") shape

let create shape =
  check_shape shape;
  { shape; data = Array.make (numel_of shape) 0. }

let numel t = Array.length t.data

let flat_index shape idx =
  if List.length idx <> List.length shape then
    invalid_arg "Tensor: index rank mismatch";
  List.fold_left2
    (fun acc i d ->
      if i < 0 || i >= d then invalid_arg "Tensor: index out of bounds";
      (acc * d) + i)
    0 idx shape

let unflatten shape flat =
  let rec go acc rem = function
    | [] -> acc
    | dims ->
      let tail = List.tl dims in
      let stride = numel_of tail in
      go (acc @ [ rem / stride ]) (rem mod stride) tail
  in
  go [] flat shape

let get t idx = t.data.(flat_index t.shape idx)
let set t idx v = t.data.(flat_index t.shape idx) <- v

let init shape f =
  check_shape shape;
  let n = numel_of shape in
  { shape; data = Array.init n (fun i -> f (unflatten shape i)) }

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

let transpose t perm =
  let rank = List.length t.shape in
  if List.length perm <> rank then invalid_arg "Tensor.transpose: perm rank";
  if List.sort compare perm <> List.init rank (fun i -> i) then
    invalid_arg "Tensor.transpose: not a permutation";
  let old_shape = Array.of_list t.shape in
  let new_shape = List.map (fun p -> old_shape.(p)) perm in
  init new_shape (fun idx ->
      let idx_arr = Array.of_list idx in
      let old_idx = Array.make rank 0 in
      List.iteri (fun pos p -> old_idx.(p) <- idx_arr.(pos)) perm;
      get t (Array.to_list old_idx))

let slice t windows =
  if List.length windows <> List.length t.shape then
    invalid_arg "Tensor.slice: rank mismatch";
  List.iter2
    (fun (s, l) d ->
      if s < 0 || l <= 0 || s + l > d then invalid_arg "Tensor.slice: window out of range")
    windows t.shape;
  let new_shape = List.map snd windows in
  init new_shape (fun idx ->
      get t (List.map2 (fun i (s, _) -> i + s) idx windows))

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
    init new_shape (fun idx ->
        let a = List.nth idx axis in
        let rec pick offset = function
          | [] -> assert false
          | t :: rest ->
            let d = List.nth t.shape axis in
            if a - offset < d then
              get t (List.mapi (fun i x -> if i = axis then a - offset else x) idx)
            else pick (offset + d) rest
        in
        pick 0 ts)

let map f t = { t with data = Array.map f t.data }

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

let map2 f t1 t2 =
  if t1.shape = t2.shape then
    { t1 with data = Array.init (numel t1) (fun i -> f t1.data.(i) t2.data.(i)) }
  else begin
    let out_shape = broadcast_shapes t1.shape t2.shape in
    let r = List.length out_shape in
    let pad s = List.init (r - List.length s) (fun _ -> 1) @ s in
    let s1 = pad t1.shape and s2 = pad t2.shape in
    init out_shape (fun idx ->
        let project s = List.map2 (fun i d -> if d = 1 then 0 else i) idx s in
        let v1 = t1.data.(flat_index s1 (project s1)) in
        let v2 = t2.data.(flat_index s2 (project s2)) in
        f v1 v2)
  end

let add = map2 ( +. )
let sub = map2 ( -. )
let mul = map2 ( *. )

let scale_shift t ~scale ~shift ~axis =
  let d = List.nth t.shape axis in
  if numel scale <> d || numel shift <> d then
    invalid_arg "Tensor.scale_shift: scale/shift length mismatch";
  init t.shape (fun idx ->
      let c = List.nth idx axis in
      (get t idx *. scale.data.(c)) +. shift.data.(c))

let reduce t ~axis ~init:init_v ~f =
  let rank = List.length t.shape in
  if axis < 0 || axis >= rank then invalid_arg "Tensor.reduce: bad axis";
  let d = List.nth t.shape axis in
  let out_shape = List.mapi (fun i x -> if i = axis then 1 else x) t.shape in
  init out_shape (fun idx ->
      let acc = ref init_v in
      for a = 0 to d - 1 do
        let full = List.mapi (fun i x -> if i = axis then a else x) idx in
        acc := f !acc (get t full)
      done;
      !acc)

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
  init t.shape (fun idx ->
      let c = List.nth idx axis in
      let mu_idx = List.mapi (fun i x -> if i = axis then 0 else x) idx in
      let m = get mu mu_idx and v = get var mu_idx in
      (gamma.data.(c) *. (get t idx -. m) /. sqrt (v +. eps)) +. beta.data.(c))

let matmul2 a b m k n get_a =
  let out = create [ m; n ] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0. in
      for p = 0 to k - 1 do
        acc := !acc +. (get_a a i p *. get b [ p; j ])
      done;
      set out [ i; j ] !acc
    done
  done;
  out

let matmul a b =
  match (a.shape, b.shape) with
  | [ m; k ], [ k'; n ] when k = k' ->
    matmul2 a b m k n (fun t i p -> get t [ i; p ])
  | [ m; k ], [ bs; k'; n ] when k = k' ->
    let slices =
      List.init bs (fun bi ->
          let sb = reshape (slice b [ (bi, 1); (0, k); (0, n) ]) [ k; n ] in
          reshape (matmul2 a sb m k n (fun t i p -> get t [ i; p ])) [ 1; m; n ])
    in
    concat slices ~axis:0
  | [ bs; m; k ], [ k'; n ] when k = k' ->
    let slices =
      List.init bs (fun bi ->
          let sl = slice a [ (bi, 1); (0, m); (0, k) ] in
          let sl = reshape sl [ m; k ] in
          reshape (matmul2 sl b m k n (fun t i p -> get t [ i; p ])) [ 1; m; n ])
    in
    concat slices ~axis:0
  | [ bs; m; k ], [ bs'; k'; n ] when k = k' && bs = bs' ->
    let slices =
      List.init bs (fun bi ->
          let sa = reshape (slice a [ (bi, 1); (0, m); (0, k) ]) [ m; k ] in
          let sb = reshape (slice b [ (bi, 1); (0, k); (0, n) ]) [ k; n ] in
          reshape (matmul2 sa sb m k n (fun t i p -> get t [ i; p ])) [ 1; m; n ])
    in
    concat slices ~axis:0
  | _ -> invalid_arg "Tensor.matmul: incompatible shapes"

let conv_out_dim h k stride padding = ((h + (2 * padding) - k) / stride) + 1

let conv2d_hw x w ~stride ~pad_h ~pad_w =
  match (x.shape, w.shape) with
  | [ n; c; h; wd ], [ oc; c'; kh; kw ] when c = c' ->
    let oh = conv_out_dim h kh stride pad_h in
    let ow = conv_out_dim wd kw stride pad_w in
    init [ n; oc; oh; ow ] (fun idx ->
        match idx with
        | [ ni; oci; ohi; owi ] ->
          let acc = ref 0. in
          for ci = 0 to c - 1 do
            for khi = 0 to kh - 1 do
              for kwi = 0 to kw - 1 do
                let hi = (ohi * stride) + khi - pad_h in
                let wi = (owi * stride) + kwi - pad_w in
                if hi >= 0 && hi < h && wi >= 0 && wi < wd then
                  acc :=
                    !acc
                    +. (get x [ ni; ci; hi; wi ] *. get w [ oci; ci; khi; kwi ])
              done
            done
          done;
          !acc
        | _ -> assert false)
  | _ -> invalid_arg "Tensor.conv2d: expected NCHW x OIHW with matching C"

let conv2d x w ~stride ~padding = conv2d_hw x w ~stride ~pad_h:padding ~pad_w:padding

let depthwise_conv2d x w ~stride ~padding =
  match (x.shape, w.shape) with
  | [ n; c; h; wd ], [ c'; 1; kh; kw ] when c = c' ->
    let oh = conv_out_dim h kh stride padding in
    let ow = conv_out_dim wd kw stride padding in
    init [ n; c; oh; ow ] (fun idx ->
        match idx with
        | [ ni; ci; ohi; owi ] ->
          let acc = ref 0. in
          for khi = 0 to kh - 1 do
            for kwi = 0 to kw - 1 do
              let hi = (ohi * stride) + khi - padding in
              let wi = (owi * stride) + kwi - padding in
              if hi >= 0 && hi < h && wi >= 0 && wi < wd then
                acc := !acc +. (get x [ ni; ci; hi; wi ] *. get w [ ci; 0; khi; kwi ])
            done
          done;
          !acc
        | _ -> assert false)
  | _ -> invalid_arg "Tensor.depthwise_conv2d: expected weight [c,1,kh,kw]"

let pool2d x ~kernel ~stride ~padding ~init:init_v ~f ~finish =
  match x.shape with
  | [ n; c; h; w ] ->
    let oh = conv_out_dim h kernel stride padding in
    let ow = conv_out_dim w kernel stride padding in
    init [ n; c; oh; ow ] (fun idx ->
        match idx with
        | [ ni; ci; ohi; owi ] ->
          let acc = ref init_v and count = ref 0 in
          for khi = 0 to kernel - 1 do
            for kwi = 0 to kernel - 1 do
              let hi = (ohi * stride) + khi - padding in
              let wi = (owi * stride) + kwi - padding in
              if hi >= 0 && hi < h && wi >= 0 && wi < w then begin
                acc := f !acc (get x [ ni; ci; hi; wi ]);
                incr count
              end
            done
          done;
          finish !acc !count
        | _ -> assert false)
  | _ -> invalid_arg "Tensor.pool2d: expected NCHW"

let maxpool2d x ~kernel ~stride ~padding =
  pool2d x ~kernel ~stride ~padding ~init:neg_infinity ~f:Float.max
    ~finish:(fun acc _ -> acc)

let avgpool2d x ~kernel ~stride ~padding =
  pool2d x ~kernel ~stride ~padding ~init:0. ~f:( +. ) ~finish:(fun acc _ ->
      acc /. float_of_int (kernel * kernel))

let global_avgpool x =
  match x.shape with
  | [ n; c; h; w ] ->
    init [ n; c; 1; 1 ] (fun idx ->
        match idx with
        | [ ni; ci; _; _ ] ->
          let acc = ref 0. in
          for hi = 0 to h - 1 do
            for wi = 0 to w - 1 do
              acc := !acc +. get x [ ni; ci; hi; wi ]
            done
          done;
          !acc /. float_of_int (h * w)
        | _ -> assert false)
  | _ -> invalid_arg "Tensor.global_avgpool: expected NCHW"

let im2col_hw x ~kh ~kw ~stride ~pad_h ~pad_w =
  match x.shape with
  | [ n; c; h; w ] ->
    let oh = conv_out_dim h kh stride pad_h in
    let ow = conv_out_dim w kw stride pad_w in
    init [ n; c * kh * kw; oh * ow ] (fun idx ->
        match idx with
        | [ ni; row; col ] ->
          let ci = row / (kh * kw) in
          let khi = row / kw mod kh in
          let kwi = row mod kw in
          let ohi = col / ow and owi = col mod ow in
          let hi = (ohi * stride) + khi - pad_h in
          let wi = (owi * stride) + kwi - pad_w in
          if hi >= 0 && hi < h && wi >= 0 && wi < w then get x [ ni; ci; hi; wi ]
          else 0.
        | _ -> assert false)
  | _ -> invalid_arg "Tensor.im2col: expected NCHW"

let im2col x ~kernel ~stride ~padding =
  im2col_hw x ~kh:kernel ~kw:kernel ~stride ~pad_h:padding ~pad_w:padding
