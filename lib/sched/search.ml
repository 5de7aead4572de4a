module MT = Matmul_template
module Tuning_log = Hidet_obs.Tuning_log

type guided_params = {
  seed : int;
  budget_fraction : float;
  population : int;
  elites : int;
  patience : int;
}

let default_guided_params =
  { seed = 2023; budget_fraction = 0.2; population = 24; elites = 8; patience = 4 }

type 'a space_ops = {
  mutate : Random.State.t -> 'a -> 'a;
  crossover : Random.State.t -> 'a -> 'a -> 'a;
}

type 'a t = Exhaustive | Guided of { params : guided_params; ops : 'a space_ops }

let name = function Exhaustive -> "exhaustive" | Guided _ -> "guided"

(* --- the matmul space ops --------------------------------------------------- *)

let matmul_ops =
  let block_vals = [| 16; 32; 64; 128 |] in
  let k_vals = [| 8; 16; 32 |] in
  let sk_vals = [| 1; 2; 4; 8 |] in
  (* Step one enumerated dimension to an adjacent value (clamped). *)
  let step rs vals v =
    let i = ref 0 in
    Array.iteri (fun j x -> if x = v then i := j) vals;
    let j = !i + if Random.State.bool rs then 1 else -1 in
    vals.(max 0 (min (Array.length vals - 1) j))
  in
  let mutate rs (c : MT.config) =
    let fm = max 1 (c.MT.block_m / max 1 c.MT.warp_m) in
    let fn = max 1 (c.MT.block_n / max 1 c.MT.warp_n) in
    match Random.State.int rs 8 with
    | 0 ->
      let bm = step rs block_vals c.MT.block_m in
      { c with MT.block_m = bm; warp_m = bm / fm }
    | 1 ->
      let bn = step rs block_vals c.MT.block_n in
      { c with MT.block_n = bn; warp_n = bn / fn }
    | 2 -> { c with MT.block_k = step rs k_vals c.MT.block_k }
    | 3 -> { c with MT.warp_m = c.MT.block_m / (if fm = 1 then 2 else 1) }
    | 4 -> { c with MT.warp_n = c.MT.block_n / (if fn = 1 then 2 else 1) }
    | 5 ->
      let d = if Random.State.bool rs then 1 else -1 in
      { c with MT.stages = max 1 (min 4 (c.MT.stages + d)) }
    | 6 -> { c with MT.split_k = step rs sk_vals c.MT.split_k }
    | _ ->
      if Random.State.bool rs then
        { c with MT.use_tensor_core = not c.MT.use_tensor_core }
      else { c with MT.swizzle = not c.MT.swizzle }
  in
  let crossover rs (a : MT.config) (b : MT.config) =
    let pick x y = if Random.State.bool rs then x else y in
    (* Block and warp extents travel together so the warp fraction of the
       chosen parent survives (divisibility is the template's most common
       rejection reason). *)
    let block_m, warp_m = pick (a.MT.block_m, a.MT.warp_m) (b.MT.block_m, b.MT.warp_m) in
    let block_n, warp_n = pick (a.MT.block_n, a.MT.warp_n) (b.MT.block_n, b.MT.warp_n) in
    {
      MT.block_m;
      block_n;
      warp_m;
      warp_n;
      block_k = pick a.MT.block_k b.MT.block_k;
      stages = pick a.MT.stages b.MT.stages;
      split_k = pick a.MT.split_k b.MT.split_k;
      use_tensor_core = pick a.MT.use_tensor_core b.MT.use_tensor_core;
      swizzle = pick a.MT.swizzle b.MT.swizzle;
    }
  in
  { mutate; crossover }

let guided_matmul ?(params = default_guided_params) () =
  Guided { params; ops = matmul_ops }

(* --- the guided run ---------------------------------------------------------

   All proposal randomness is drawn single-threaded from [rs] inside
   [next_batch]; [observe] only appends measurements. The driver measures
   each batch (possibly across domains) and reports results in batch
   order, so the proposal sequence — and hence the whole trial sequence —
   depends only on the seed. *)

type 'a run = {
  rs : Random.State.t;
  params : guided_params;
  ops : 'a space_ops;
  candidates : 'a array;
  index_of : ('a, int) Hashtbl.t;
  proposed : (int, unit) Hashtbl.t;
  budget : int;
  mutable measured : (int * float) list;  (* finite latencies only *)
  mutable best : float;
  mutable stale_batches : int;
  mutable batch_open : float;  (* best before the batch in flight *)
  mutable started : bool;
}

let start strategy ~candidates =
  match strategy with
  | Exhaustive -> None
  | Guided { params; ops } ->
    let n = Array.length candidates in
    let index_of = Hashtbl.create (2 * n) in
    Array.iteri
      (fun i c -> if not (Hashtbl.mem index_of c) then Hashtbl.add index_of c i)
      candidates;
    let budget =
      let frac =
        int_of_float (Float.max 0. params.budget_fraction *. float_of_int n)
      in
      max 1 (min n (max params.population frac))
    in
    Some
      {
        rs = Random.State.make [| params.seed; n |];
        params;
        ops;
        candidates;
        index_of;
        proposed = Hashtbl.create 64;
        budget;
        measured = [];
        best = infinity;
        stale_batches = 0;
        batch_open = infinity;
        started = false;
      }

let observe r ~index ~latency =
  if latency < infinity then begin
    r.measured <- (index, latency) :: r.measured;
    if latency < r.best then r.best <- latency
  end

let propose r idx =
  if idx >= 0 && idx < Array.length r.candidates && not (Hashtbl.mem r.proposed idx)
  then begin
    Hashtbl.add r.proposed idx ();
    true
  end
  else false

let remaining_budget r = r.budget - Hashtbl.length r.proposed

(* Initial population: an even spread across the enumeration covers every
   region of the curated space. *)
let seed_batch r =
  r.started <- true;
  let n = Array.length r.candidates in
  let want = min r.params.population (remaining_budget r) in
  List.filter_map
    (fun i -> if propose r i then Some (i, Tuning_log.Seed) else None)
    (List.init want (fun j -> j * n / want))

let elite_indices r =
  let sorted =
    List.sort
      (fun (i, a) (j, b) -> if a = b then compare i j else compare a b)
      r.measured
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | (i, _) :: rest -> i :: take (k - 1) rest
  in
  take r.params.elites sorted

let evolve_batch r =
  let elites = elite_indices r in
  match elites with
  | [] ->
    (* Nothing feasible measured yet: keep probing the enumeration in
       order (still deterministic). *)
    let n = Array.length r.candidates in
    let out = ref [] and i = ref 0 in
    while List.length !out < min r.params.population (remaining_budget r)
          && !i < n do
      if propose r !i then out := (!i, Tuning_log.Seed) :: !out;
      incr i
    done;
    List.rev !out
  | _ ->
    let earr = Array.of_list elites in
    let ne = Array.length earr in
    let pick_elite () = r.candidates.(earr.(Random.State.int r.rs ne)) in
    let want = min r.params.population (remaining_budget r) in
    let out = ref [] in
    let attempts = ref 0 in
    let max_attempts = 40 * r.params.population in
    while List.length !out < want && !attempts < max_attempts do
      incr attempts;
      let cand, proposer =
        if ne >= 2 && Random.State.bool r.rs then
          ( r.ops.crossover r.rs (pick_elite ()) (pick_elite ()),
            Tuning_log.Crossover )
        else (r.ops.mutate r.rs (pick_elite ()), Tuning_log.Mutation)
      in
      match Hashtbl.find_opt r.index_of cand with
      | Some i when propose r i -> out := (i, proposer) :: !out
      | _ -> ()
    done;
    List.rev !out

let next_batch r =
  (* Close the previous batch's patience accounting: a whole generation
     without improving the best latency counts as one stale batch. *)
  if r.started then
    if r.best < r.batch_open then r.stale_batches <- 0
    else r.stale_batches <- r.stale_batches + 1;
  if remaining_budget r <= 0 || r.stale_batches >= r.params.patience then []
  else begin
    r.batch_open <- r.best;
    if not r.started then seed_batch r else evolve_batch r
  end
