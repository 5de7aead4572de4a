(** The hardware-centric schedule space (paper §4.3), widened.

    Tile sizes are chosen from hardware-friendly powers of two, independent
    of the problem size — partial tiles are handled by predicated loads and
    stores in the template. The curated base space stays near the paper's
    180 matmul schedules; the widened space adds the dimensions production
    GEMMs live on — thread-block swizzle for L2 locality, 3/4-stage
    software pipelines, and shape-aware split-k factors — which grows it
    past comfortable exhaustive enumeration and is what
    {!Hidet_sched.Search}'s guided mode exists for. Still orders of
    magnitude below the 10^5–10^8 candidate input-centric spaces of
    AutoTVM/Ansor (their Fig. 7). *)

val matmul : unit -> Matmul_template.config list
(** The full (widened, deduplicated) matmul space; every element passes
    [Matmul_template.check]. Independent of problem size. Lazily
    constructed on first use and memoized, so processes that never tune do
    not pay for the enumeration; the memo is domain-safe (first callers
    racing from several domains all get the same list, built once); the
    order is deterministic and is part of the schedule-cache contract
    (entries store winner indices). *)

val matmul_with_split_k : m:int -> n:int -> Matmul_template.config list
(** {!matmul}, extended with split-k variants of the pipelined configs when
    the output tile grid is too small to saturate the device (the
    parallel-k-reduction optimization of §6.2.4) — the factor set grows as
    the grid shrinks ([[]] when 64x64 tiles already saturate the device, up
    to [[2; 4; 8]] for tiny grids), and the result carries no duplicate
    configs. The space depends on [m] and [n] only through that factor
    set, so the three spaces are built once, together with {!matmul} in
    the same domain-safe memo: every call for one factor set returns the
    same (physically equal) list, and [[]] returns {!matmul} itself. *)

val split_k_class : m:int -> n:int -> int
(** The factor set {!matmul_with_split_k} uses for an [m x n] output, as an
    index: 0 for [[]], 1 for [[2; 4]], 2 for [[2; 4; 8]]. Equal classes give
    the same (physically equal) space. *)

val dedup : Matmul_template.config list -> Matmul_template.config list
(** Canonical structural dedup, first occurrence wins, order preserved. *)

val sample_matmul : Random.State.t -> int -> Matmul_template.config list
(** [sample_matmul rs count]: [count] distinct configs drawn uniformly (and
    deterministically, given [rs]) from {!matmul}; the whole space when
    [count >= size ()]. [count] is clamped to [0 .. size ()], so a count
    at (or beyond, or below) the space boundary never raises and the
    draws stay distinct. Used by the differential fuzzer to cross-check a
    manageable subset of the space per case. *)

val size : unit -> int
