(** GPU kernel functions: a statement body plus launch configuration and the
    buffers it owns in each memory scope.

    The launch configuration is one-dimensional ([grid_dim] blocks of
    [block_dim] threads); task mappings flatten multi-dimensional worker
    grids onto linear worker ids, so 1-D launch loses no generality. *)

type t = {
  name : string;
  params : Buffer.t list;  (** global-memory tensors passed at launch *)
  grid_dim : int;
  block_dim : int;
  shared : Buffer.t list;
  warp_bufs : Buffer.t list;
  regs : Buffer.t list;  (** per-thread register arrays *)
  body : Stmt.t;
  pipeline_stages : int;
      (** software-pipelining depth of the main loop: 1 = no overlap,
          2 = double buffering, >2 = multi-stage async prefetch. Validated
          structurally by {!Hidet_gpu.Pipeline}. *)
}

val create :
  ?shared:Buffer.t list ->
  ?warp_bufs:Buffer.t list ->
  ?regs:Buffer.t list ->
  ?pipeline_stages:int ->
  name:string ->
  params:Buffer.t list ->
  grid_dim:int ->
  block_dim:int ->
  Stmt.t ->
  t
(** Raises [Invalid_argument] on non-positive launch dimensions, scope
    mismatches (e.g. a [Shared] buffer among [params]) or block size not
    being positive. *)

val warp_size : int
(** Threads per warp (32), the one warp size of the simulators, the
    latency models and the generated code. *)

val num_threads : t -> int
val num_warps_per_block : t -> int
val shared_bytes : t -> int
(** Total statically allocated shared memory per block, including warp
    buffers (whose storage physically lives in registers distributed over the
    warp but is charged conservatively). *)

val regs_per_thread : t -> int
(** Estimated registers (4-byte words) per thread: declared register arrays
    plus warp buffers divided over the warp, plus a fixed overhead for
    scalars. *)

val map_body : (Stmt.t -> Stmt.t) -> t -> t
val pp : Format.formatter -> t -> unit
