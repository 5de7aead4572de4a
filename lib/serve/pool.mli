(** Batch execution over worker domains, plus response verification.

    The virtual-time server ({!Server.simulate}) decides {e what} runs and
    {e when}; the pool then really runs those batches on the simulated GPU
    — assembling each batch's input tensors, padding the tail up to the
    bucket size, executing the bucket's plan on the model's
    [Registry.backend], and demultiplexing one
    output row back per member request. Batches are spread across domains
    with [Hidet_parallel.Parallel.map]; plans were prepared at load time,
    so the workers never contend on the constant lock. *)

type batch = {
  bid : int;  (** dense dispatch-order id *)
  bucket : int;  (** plan variant the batch runs on (>= #members) *)
  members : Loadgen.request list;  (** admitted requests, arrival order *)
  dispatch : float;  (** virtual time the batcher launched it *)
  completion : float;  (** virtual time the service finished *)
  worker : int;  (** virtual worker the simulation placed it on *)
}

val padded_rows : batch -> int
(** [bucket - #members]: tail rows filled with zeros. *)

val execute :
  ?workers:int ->
  seed:int ->
  Registry.model ->
  batch list ->
  (int * Hidet_tensor.Tensor.t) list
(** Run every batch and demux: returns one [(rid, output-row)] pair per
    member request, in no particular order. Inputs are re-synthesized from
    [(seed, rid)] via {!Loadgen.synth_inputs}; each output row keeps its
    leading batch dim of 1, matching what the bucket-1 plan returns for
    the same request. Emits one [serve.exec_batch] trace span per batch
    (closing the batch's flow arc from [serve.dispatch]), one nested
    [serve.demux] span per member (closing the request's flow arc), an
    [Executed] lifecycle event per member, and bumps the per-model/bucket
    [serve.exec_batches] counters. *)

val check :
  ?at:(int -> float) ->
  seed:int ->
  Registry.model ->
  (int * Hidet_tensor.Tensor.t) list ->
  int
(** Re-run every response's request through the bucket-1 plan directly
    ([Plan.run1], on the model's backend) and compare bit-for-bit (exact
    float-array equality —
    batching must not change results, only pack rows; sharded models
    compile everything under deterministic-reduction options, so the
    same holds across shard groups). When some bucket runs a
    reduction-order-changing strategy (tensor-reduce), the comparison
    relaxes to the repo-wide graph tolerance. Returns the number
    of mismatching responses and bumps [serve.check_failures] for each.
    Also observes wall verify time into [serve.verify_ms], emits one
    [Verified] lifecycle event per response stamped [at rid] (the
    request's virtual completion time; defaults to 0), and trips the
    flight recorder on the first mismatch. *)
