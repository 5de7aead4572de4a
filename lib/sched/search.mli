(** Search strategies over the (widened) hardware-centric schedule space.

    The paper's space (~180 schedules) is small enough that exhaustive
    enumeration is the whole story. The widened space — thread-block
    swizzle, first-class split-k, 3/4-stage pipelines — is several times
    larger, so this module adds a {e guided} mode next to the exhaustive
    oracle: a seeded evolutionary search (single-field mutations and
    field-wise crossover over template configs, restricted to members of
    the enumerated space), seeded by an even spread across the
    enumeration. The guided mode measures a bounded fraction of the space
    ([budget_fraction]) and, on the bench gates, must land within 5% of the
    exhaustive best.

    Determinism: all randomness flows from the seed in {!guided_params};
    batches are proposed sequentially and measured in batch order, so the
    same seed yields the identical winner and trial sequence whether the
    measurements run sequentially or across domains. *)

type guided_params = {
  seed : int;  (** all guided randomness derives from this *)
  budget_fraction : float;
      (** max fraction of the candidate list that may be measured *)
  population : int;  (** batch size per generation *)
  elites : int;  (** parents drawn from the best measured so far *)
  patience : int;
      (** generations without improvement before stopping early *)
}

val default_guided_params : guided_params
(** seed 2023, budget 20% of the space, population 24, 8 elites,
    patience 4. *)

type 'a space_ops = {
  mutate : Random.State.t -> 'a -> 'a;
  crossover : Random.State.t -> 'a -> 'a -> 'a;
}

type 'a t = Exhaustive | Guided of { params : guided_params; ops : 'a space_ops }

val name : _ t -> string
(** ["exhaustive"] or ["guided"], for traces. *)

val guided_matmul : ?params:guided_params -> unit -> Matmul_template.config t
(** Guided search over matmul configs. Mutation steps move one dimension to
    an adjacent enumerated value (keeping the warp fraction, so most
    proposals stay inside the curated space); crossover picks each field
    from either parent, moving block and warp extents together. *)

(** {1 The guided run protocol}

    {!Tuner.tune} drives a guided search as: [start]; then repeatedly
    [next_batch] (proposal indices with their proposer tags), measure
    them (in any order), and [observe] each result in batch order; an
    empty batch ends the run. *)

type 'a run

val start : 'a t -> candidates:'a array -> 'a run option
(** [None] for {!Exhaustive} (no run state needed). *)

val next_batch : 'a run -> (int * Hidet_obs.Tuning_log.proposer) list
(** The next generation to measure: candidate-list indices, never repeated
    across the run, [[]] once the budget or patience is exhausted. *)

val observe : 'a run -> index:int -> latency:float -> unit
(** Report a measurement ([infinity] = infeasible). Must be called in
    batch order for the deterministic-trials guarantee. *)
