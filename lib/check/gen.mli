(** Seeded random generation of differential-test cases.

    Two generators, per the paper's two program levels:

    - {b computation definitions}: random {!Hidet_compute.Def.scalar} trees
      over random shapes, with optional Sum/Max reductions, padding [Sel]s
      and index bijections. Index expressions are drawn from a fixed pattern
      vocabulary ({!idx_pat}) from which each input's extents are {e
      derived}, so every generated definition is in-bounds by construction
      — out-of-bounds accesses found by the interpreter are then real bugs
      in a lowering, never generator noise;
    - {b graphs}: small DAGs over the {!Hidet_graph.Op} vocabulary with
      shape-inference-valid wiring. Matmul/conv dimensions are quantized to
      a small set so the process-global schedule cache absorbs repeated
      tuning across cases.

    Everything is derived from an explicit [Random.State.t]; case [i] of a
    suite uses [Random.State.make [| seed; i |]], so any case replays from
    [(seed, i)] alone. *)

(** Per-dimension index pattern for reading one input dimension. *)
type idx_pat =
  | P_axis of int  (** [idx = i_a]; extent = out dim *)
  | P_raxis of int  (** [idx = r_a]; extent = reduce dim *)
  | P_axis_plus_raxis of int * int
      (** stencil: [idx = i_a + r_b]; extent = out + red - 1 *)
  | P_strided of int * int  (** [idx = i_a * s]; extent = (out-1)*s + 1 *)
  | P_rev of int  (** [idx = (out-1) - i_a]; extent = out dim *)
  | P_shifted of int * int
      (** padding: [idx = i_a - s], guarded by a [Sel] returning 0 when
          [idx < 0]; extent = out dim *)
  | P_const of int  (** [idx = c]; extent = c + 1 *)

(** Scalar-body tree. Leaves read whole inputs at their fixed index
    patterns, so bounds are decided entirely by the patterns. *)
type body =
  | B_in of int  (** read input [k] at its pattern indices *)
  | B_const of float
  | B_axis of int  (** output axis value as a float *)
  | B_bin of Hidet_ir.Expr.binop * body * body
  | B_un of Hidet_ir.Expr.unop * body
  | B_sel of int * int * body * body
      (** [B_sel (a, t, x, y)]: [if i_a < t then x else y] *)

type def_spec = {
  ds_name : string;
  ds_out : int list;
  ds_reduce : (int list * Hidet_compute.Def.reduce_kind) option;
  ds_inputs : idx_pat list list;  (** one pattern list per input *)
  ds_body : body;
}

(** Epilogue operators fused onto an anchor (all bijective in input 0). *)
type epi =
  | E_scale of float
  | E_relu
  | E_tanh
  | E_add_residual  (** adds an extra same-shape input *)
  | E_reshape_flat  (** reshape to rank 1 *)
  | E_transpose  (** swap the two dims; only applied at rank 2 *)

type case =
  | C_def of { spec : def_spec; pro : bool; epis : epi list }
      (** [pro]: also fuse a generated prologue into input 0 *)
  | C_matmul of {
      batch : int;
      m : int;
      n : int;
      k : int;
      n_cfgs : int;  (** template configs sampled from the space *)
      pro : bool;
      epis : epi list;
    }
  | C_conv of {
      n : int;
      c : int;
      h : int;
      w : int;
      oc : int;
      kh : int;
      kw : int;
      stride : int;
      pad : int;
    }
  | C_graph of Hidet_graph.Graph.t

val build_def : def_spec -> Hidet_compute.Def.t
(** Materialize a spec: derive input extents from the patterns, build the
    scalar body (wrapping shifted reads in padding [Sel]s), and return a
    definition that satisfies [Def.well_formed]. *)

val epi_def :
  epi -> int list -> (Hidet_compute.Def.t * int list) option
(** [epi_def e shape]: the epilogue's definition over an anchor output of
    [shape], and the resulting shape; [None] when the epilogue does not
    apply at this shape (e.g. transpose at rank <> 2). *)

val gen_graph : Random.State.t -> max_size:int -> Hidet_graph.Graph.t
(** A standalone DAG generator (also used directly by the HGF round-trip
    property test). Node count and shapes scale with [max_size]. *)

val gen_case : Random.State.t -> max_size:int -> case
(** Top-level: picks a case kind (weighted: defs and graphs dominate) and
    generates it. *)

val case_to_string : case -> string
(** Self-contained textual repro: HGF text for graphs, the spec plus the
    materialized definition for defs, the parameter tuple for
    matmul/conv. *)

val case_kind : case -> string
