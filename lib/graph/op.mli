(** Graph-level operators: kind, shape inference, fusion classification,
    computation definitions and reference semantics.

    The operator set covers the five evaluated workloads (ResNet-50,
    Inception-V3, MobileNet-V2, BERT, GPT-2). Batch-norm appears in its
    inference form [Scale_shift] (scale and shift folded from the running
    statistics), matching how all engines in the paper's evaluation execute
    it. *)

type pool_kind = Max_pool | Avg_pool

type unary =
  | Relu
  | Gelu
  | Tanh_act
  | Sigmoid
  | Scale_by of float
  | Clip of float * float  (** clip(x, lo, hi); Clip (0, 6) is ReLU6 *)

type binary = Add | Sub | Mul

type t =
  | Input
  | Constant of { value : Hidet_tensor.Tensor.t Lazy.t }
  | Matmul
      (** inputs: A [b,m,k] or [m,k]; B [k,n] or [b,k,n]; out [b,m,n] or [m,n] *)
  | Conv2d of { stride : int; pad_h : int; pad_w : int }
      (** inputs: x NCHW, w OIHW (kernel extents from the weight; asymmetric
          padding supports Inception-style 1x7/7x1 kernels) *)
  | Depthwise_conv2d of { stride : int; padding : int }
      (** inputs: x NCHW, w [c,1,kh,kw] *)
  | Pool2d of { kind : pool_kind; kernel : int; stride : int; padding : int }
  | Global_avg_pool  (** NCHW -> [n,c,1,1] *)
  | Unary of unary
  | Binary of binary  (** same-shape elementwise *)
  | Bias_add  (** x + b with b broadcast along the last axis *)
  | Scale_shift  (** inputs: x NCHW, scale [c], shift [c]; channel axis 1 *)
  | Softmax  (** over the last axis *)
  | Layernorm of { eps : float }  (** inputs: x, gamma, beta; last axis *)
  | Reshape of int list  (** target shape (a [-1] wildcard is allowed) *)
  | Transpose of int list
  | Concat of { axis : int }
  | Im2col of { kh : int; kw : int; stride : int; pad_h : int; pad_w : int }
      (** NCHW -> [n, c*kh*kw, oh*ow]; the data transform of implicit-GEMM
          convolution *)
  | Embedding
      (** inputs: ids [b, s] (integral values stored as floats), table
          [vocab, d]; out [b, s, d]. A gather: data-dependent indexing, so
          neither injective nor bijective for fusion purposes. *)

val name : t -> string

val infer_shape : t -> int list list -> int list
(** Output shape from input shapes; raises [Invalid_argument "Op <name>:
    ..."] on arity or shape errors, a non-positive stride or kernel, a
    negative padding, a non-positive output dim, or a rank-0 input to an
    op that reads the last axis ([bias_add], [layernorm], [softmax]). *)

(** {1 Fusion classification (paper §4.2)} *)

val is_injective : t -> int list list -> bool
(** Qualified as a prologue operator. *)

val is_bijective : t -> int list list -> bool
(** Qualified as an epilogue operator (bijective in its first input). *)

val is_anchor : t -> bool
(** Compute-intensive or reduction operators that get their own schedule. *)

(** {1 Computation definitions} *)

val to_def : t -> int list list -> Hidet_compute.Def.t
(** The operator's computation definition given its input shapes: all
    injective operators, pooling, convolutions and matmul (the naive
    one-thread-per-output form — engines normally use the templates and
    fall back to this definition only when no template schedule applies).
    Raises [Invalid_argument] for [Input], [Constant], [Softmax] and
    [Layernorm] (compound multi-pass operators with dedicated row
    templates). *)

(** {1 Reference semantics} *)

val eval : t -> Hidet_tensor.Tensor.t list -> Hidet_tensor.Tensor.t
(** CPU oracle for every operator (including matmul and convolutions). *)
