open Hidet_ir

let rec contains_load_from scope (e : Expr.t) =
  match e with
  | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> false
  | Binop (_, a, b) -> contains_load_from scope a || contains_load_from scope b
  | Unop (_, a) -> contains_load_from scope a
  | Select (c, a, b) ->
    contains_load_from scope c || contains_load_from scope a
    || contains_load_from scope b
  | Load (buf, idx) ->
    buf.Buffer.scope = scope || List.exists (contains_load_from scope) idx

(* The ordered subsequence prefetch (a register or warp store reading
   global memory) ... compute (an MMA, or such a store reading shared
   memory) ... stage (a shared store not reading global memory; a direct
   global -> shared copy is not a pipelined pattern), fed statement by
   statement in program order. A store that both prefetches and computes
   counts as the prefetch, then the compute. *)
type state = Want_prefetch | Want_compute | Want_stage | Found

let rec scan state (s : Stmt.t) =
  match s with
  | _ when state = Found -> Found
  | Seq ss -> List.fold_left scan state ss
  | For { body; _ } | Let { body; _ } -> scan state body
  | If { then_; else_; _ } -> (
    let state = scan state then_ in
    match else_ with Some e -> scan state e | None -> state)
  | Store { buf; value; _ } -> (
    match buf.Buffer.scope with
    | Buffer.Register | Buffer.Warp ->
      let state =
        if state = Want_prefetch && contains_load_from Buffer.Global value
        then Want_compute
        else state
      in
      if state = Want_compute && contains_load_from Buffer.Shared value then
        Want_stage
      else state
    | Buffer.Shared ->
      if state = Want_stage && not (contains_load_from Buffer.Global value)
      then Found
      else state
    | Buffer.Global -> state)
  | Mma _ -> if state = Want_compute then Want_stage else state
  | Sync_threads | Comment _ -> state

let loop_has_pattern body = scan Want_prefetch body = Found

let rec has_overlap_pattern (s : Stmt.t) =
  match s with
  | Stmt.Seq ss -> List.exists has_overlap_pattern ss
  | For { body; _ } -> loop_has_pattern body || has_overlap_pattern body
  | If { then_; else_; _ } -> (
    has_overlap_pattern then_
    || match else_ with Some e -> has_overlap_pattern e | None -> false)
  | Let { body; _ } -> has_overlap_pattern body
  | Store _ | Mma _ | Sync_threads | Comment _ -> false

let effective_stages (k : Kernel.t) =
  if k.pipeline_stages <= 1 then 1
  else if has_overlap_pattern k.body then k.pipeline_stages
  else 1
