(** Multi-dimensional buffers: the memory objects of the IR.

    A buffer lives in one of the GPU memory scopes. Its shape is static (all
    dimensions known at compile time), matching Hidet's static tensor
    programs. Buffers are compared by unique id. *)

type scope =
  | Global   (** device global memory; kernel parameters live here *)
  | Shared   (** per-thread-block shared memory *)
  | Warp     (** per-warp storage (MMA fragments distributed over a warp) *)
  | Register (** per-thread private registers *)

type t = private {
  id : int;
  name : string;
  scope : scope;
  elt : Dtype.t;
  dims : int list;
}

val create : ?scope:scope -> ?elt:Dtype.t -> string -> int list -> t
(** [create name dims] makes a fresh buffer. [scope] defaults to [Global],
    [elt] to {!Dtype.F32}. All [dims] must be positive. *)

val num_elems : t -> int
val size_bytes : t -> int
val rank : t -> int

val scope_name : scope -> string
val equal : t -> t -> bool
val compare : t -> t -> int
val flat_index : t -> int list -> int
(** Row-major linearization of a full index vector; raises [Invalid_argument]
    on rank mismatch or out-of-bounds component. *)
