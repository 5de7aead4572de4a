(** Per-warp memory access-pattern analysis.

    Derives, per syntactic access site, the coalesced global-transaction
    count and shared-memory bank-conflict degree of one warp from a sampled
    address trace of the simulated warp. The trace runs real loop
    iterations with per-lane predication, so it covers affine indices,
    loop-dependent predicates and indirect addressing alike. Loops are
    capped and their counts scaled back up, which is exact for
    loop-uniform access patterns (the capped-versus-uncapped qcheck
    property in test_cycle). *)

type kind = Global_load | Global_store | Shared_load | Shared_store

type site = {
  kind : kind;
  weight : float;  (** loop-scaled executions of the site per warp *)
  transactions : float;
      (** global sites: coalesced line segments per execution, per warp *)
  conflict : float;
      (** shared sites: bank-conflict degree per execution (1 = free) *)
  in_main_loop : bool;
      (** inside the kernel's dominant (global-access) loop *)
}

val is_global : site -> bool

val segments : line:int -> int list -> int
(** Distinct cache-line segments touched by one warp access (addresses in
    bytes, translation-invariant). *)

val conflict_degree : int list -> int
(** Shared-memory bank-conflict degree of one warp access: max distinct
    4-byte words mapping to one of the 32 banks; 1 = conflict-free
    (broadcast included). *)

type traced = {
  sites : site list;  (** in structural (traversal) order *)
  stream : int array;
      (** absolute cache-line ids of the warp's global transactions in
          program order, the first 8192 kept; buffers occupy disjoint
          line-aligned bases *)
  main_trips : float;
      (** trip count of the outermost global-access loop (the largest, if
          several; 1 if none) *)
}

val traced_sites : ?line:int -> ?loop_cap:int -> Hidet_ir.Kernel.t -> traced
(** Execute the kernel body for warp 0 of block 0 with real loop
    iterations (per-lane environments, per-lane predication masks, loads
    reading zero) and record each site's actual addresses. Loops longer
    than [loop_cap] (default unbounded) iterations run [loop_cap] times
    with counts scaled back up — exact for loop-uniform access patterns. A
    loop that never runs still yields its body's sites, at zero weight. *)

type summary = {
  main_trips : float;
  load_txn_main : float;  (** per-warp load transactions in the main loop *)
  load_txn_other : float;
  store_txn : float;
  shared_cycles_main : float;  (** sum of weight x conflict degree *)
  shared_cycles_other : float;
  global_accesses : float;
  txn_per_access : float;  (** mean transactions per global warp access *)
  conflict_factor : float;  (** weighted mean bank-conflict degree *)
  stream : int array;  (** sampled line-id stream for the cache model *)
}

val analyze : ?line:int -> Hidet_ir.Kernel.t -> summary
(** Trace with loops capped at 8 iterations, and aggregate. Deterministic.
    It costs about 10 ms per kernel: the mean over the 534 kernels of the
    eight [bench: tune] shapes' quick-mode candidate spaces read 9.6 to
    11.6 ms in five runs on a 2-vCPU Xeon host. *)
