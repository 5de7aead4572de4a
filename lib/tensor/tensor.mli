(** CPU reference tensors: contiguous, row-major, float32 semantics.

    This library is the semantic oracle of the reproduction: every GPU kernel
    produced by any scheduler is checked against these implementations in the
    test suite. It is also the weight/activation container for the model
    zoo. The operators loop over flat row-major offsets; only [get], [set]
    and [init] take [int list] indices.

    Each operator's loop order and summation order are part of its
    contract: an output element is accumulated from [0.] (or [neg_infinity]
    for maxima) over its terms in the order of the loops written in
    [tensor.ml] (e.g. a convolution over input channel, then kernel row,
    then kernel column, skipping padding), each term's operands in that
    order too. So outputs are reproducible bit for bit, NaN payloads and
    signed zeros included; the test suite holds every operator to a
    list-indexed oracle and pins [Reference.run1] digests on the tiny
    models. [init] calls its function once per element in row-major
    order. *)

type t = private { shape : int list; data : float array }

(** {1 Construction} *)

val create : int list -> t
(** Zero-filled tensor. Raises [Invalid_argument] on empty/non-positive shape. *)

val init : int list -> (int list -> float) -> t
val of_array : int list -> float array -> t
val full : int list -> float -> t
val rand : ?seed:int -> int list -> t
(** Uniform in [-1, 1), deterministic for a given seed. *)

(** {1 Access} *)

val shape : t -> int list
val numel : t -> int
val get : t -> int list -> float
val set : t -> int list -> float -> unit
val data : t -> float array
val flat_get : t -> int -> float

(** {1 Shape manipulation} *)

val reshape : t -> int list -> t
(** Shares no storage (copies); sizes must agree. A [-1] wildcard dim is
    inferred. *)

val transpose : t -> int list -> t
(** [transpose t perm] permutes dimensions. *)

val slice : t -> (int * int) list -> t
(** Per-dimension [(start, length)] windows. *)

val concat : t list -> axis:int -> t

(** {1 Elementwise and broadcast} *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
(** Numpy-style broadcasting between the two shapes. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val relu : t -> t
val gelu : t -> t
val tanh_ : t -> t
val sigmoid : t -> t
val scale_shift : t -> scale:t -> shift:t -> axis:int -> t
(** Per-channel affine (inference-mode batch norm): broadcast [scale] and
    [shift] (1-D of the axis length) along [axis]. *)

(** {1 Reductions and normalizations} *)

val sum : t -> axis:int -> t
val mean : t -> axis:int -> t
val max_ : t -> axis:int -> t
val softmax : t -> axis:int -> t
val layernorm : t -> gamma:t -> beta:t -> eps:float -> t
(** Normalizes over the last dimension. *)

(** {1 Linear algebra and convolution} *)

val matmul : t -> t -> t
(** [m,k] x [k,n]; batched when either operand carries a leading batch dim:
    [b,m,k] x [k,n], [b,m,k] x [b,k,n], or [m,k] x [b,k,n] (shared weights
    against batched data, the implicit-GEMM convolution case). *)

val conv2d : t -> t -> stride:int -> padding:int -> t
(** NCHW input [n,c,h,w], OIHW weight [oc,c,kh,kw]; square padding. *)

val conv2d_hw : t -> t -> stride:int -> pad_h:int -> pad_w:int -> t
(** General form: asymmetric padding (e.g. Inception-V3's 1x7 and 7x1
    convolutions use pad (0,3) and (3,0)). Kernel extents come from the
    weight tensor. *)

val depthwise_conv2d : t -> t -> stride:int -> padding:int -> t
(** Weight [c,1,kh,kw]; channel multiplier 1. *)

val maxpool2d : t -> kernel:int -> stride:int -> padding:int -> t
val avgpool2d : t -> kernel:int -> stride:int -> padding:int -> t
val global_avgpool : t -> t
(** [n,c,h,w] -> [n,c,1,1]. *)

val im2col : t -> kernel:int -> stride:int -> padding:int -> t
(** NCHW [n,c,h,w] -> [n, c*kh*kw, oh*ow]: the data-layout transform of
    implicit-GEMM convolution (paper §5.2). Square form. *)

val im2col_hw :
  t -> kh:int -> kw:int -> stride:int -> pad_h:int -> pad_w:int -> t

(** {1 Comparison} *)

val allclose : ?rtol:float -> ?atol:float -> t -> t -> bool
val max_abs_diff : t -> t -> float
