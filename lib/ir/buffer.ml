type scope = Global | Shared | Warp | Register

type t = {
  id : int;
  name : string;
  scope : scope;
  elt : Dtype.t;
  dims : int list;
}

(* Atomic: buffers are created from several domains when the tuner compiles
   schedule candidates in parallel. *)
let counter = Atomic.make 0

let create ?(scope = Global) ?(elt = Dtype.F32) name dims =
  if dims = [] then invalid_arg "Buffer.create: empty shape";
  List.iter
    (fun d -> if d <= 0 then invalid_arg "Buffer.create: non-positive dim")
    dims;
  { id = Atomic.fetch_and_add counter 1 + 1; name; scope; elt; dims }

let num_elems b = List.fold_left ( * ) 1 b.dims
let size_bytes b = num_elems b * Dtype.size_bytes b.elt
let rank b = List.length b.dims

let scope_name = function
  | Global -> "global"
  | Shared -> "shared"
  | Warp -> "warp"
  | Register -> "register"

let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id

let flat_index b idx =
  if List.length idx <> List.length b.dims then
    invalid_arg (Printf.sprintf "Buffer.flat_index: rank mismatch on %s" b.name);
  List.fold_left2
    (fun acc i d ->
      if i < 0 || i >= d then
        invalid_arg
          (Printf.sprintf "Buffer.flat_index: index %d out of bound %d on %s" i
             d b.name);
      (acc * d) + i)
    0 idx b.dims
