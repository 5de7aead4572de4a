(** Latency-hiding warp-scheduler model.

    Simulates the resident warps of one SM round-by-round: per-round memory
    issue (bandwidth-serialized, gated by software-pipeline buffer
    availability) followed by compute on one of the SM's
    {!compute_slots} sub-partitions, with cache-blended memory latency
    hidden by switching warps. Deterministic (round-robin processing). *)

type work = {
  iters : int;
  mem_txn_per_iter : float;
  dram_frac : float;
  l2_frac : float;
  tail_mem_txn : float;
  smem_cycles_per_iter : float;
  compute_cycles_per_iter : float;
  tail_compute_cycles : float;
  sync_cycles_per_iter : float;
  stages : int;
  warps : int;
  mem_issue_cycles : float;
  dram_service_cycles : float;
  l2_service_cycles : float;
  l1_latency : float;
  l2_latency : float;
  dram_latency : float;
}

type result = { cycles : float; mem_busy : float; compute_busy : float }

val compute_slots : int
(** Warp schedulers (compute sub-partitions) per SM. *)

val simulate : work -> result
(** [cycles] is at least [compute_busy / compute_slots] (each slot runs
    one compute phase at a time) and at least one warp's own compute
    phases (a warp's rounds run in order). {!Fidelity.lower_bound} relies
    on both. *)
