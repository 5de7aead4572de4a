(** The tuning log: one structured record per tuning trial.

    This is the AutoTVM/Ansor-style "tuning records" artifact: every
    candidate a tuner evaluates, or skips by a lower bound, is logged with
    its workload signature,
    candidate index, printable config, outcome and estimated latency —
    enough to regenerate the Fig 14 (cost) and Fig 15 (schedule-latency
    distribution) quantities offline.

    Collection follows the {!Trace} recorder model: a process-global sink,
    off by default (recording is then one atomic load), enabled with
    {!start}. Records may arrive from any domain. *)

type outcome =
  | Measured  (** compiled and measured, finite latency *)
  | Infeasible  (** compiled, but the device model rejected it *)
  | Rejected  (** the template refused the config; never measured *)
  | Pruned
      (** a lower bound proved it cannot win; never instantiated, billed
          as a measurement *)

type proposer =
  | Exhaustive  (** the exhaustive enumeration proposed this candidate *)
  | Seed  (** guided search: initial population member *)
  | Mutation  (** guided search: single-field mutation of an elite *)
  | Crossover  (** guided search: field-wise mix of two elites *)

type trial = {
  engine : string;  (** "hidet", "autotvm", "ansor", ... *)
  workload : string;  (** workload signature, e.g. the schedule-cache key *)
  index : int;  (** candidate index in the enumeration / trial number *)
  config : string;  (** printable schedule config ("" if unavailable) *)
  outcome : outcome;
  latency : float;  (** estimated seconds; [infinity] unless [Measured] *)
  proposer : proposer;  (** which search stage proposed the candidate *)
}

val outcome_to_string : outcome -> string
val proposer_to_string : proposer -> string

val enabled : unit -> bool
val start : unit -> unit
(** Begin collecting, discarding any previous log. *)

val record : trial -> unit
(** No-op unless collecting. Callers on hot paths should guard record
    construction with {!enabled}. *)

val stop : unit -> trial list
(** Stop collecting and return the log in record order. *)

val save_tsv : string -> trial list -> unit
(** Tab-separated export: engine, workload, index, config, outcome,
    latency in microseconds ([-1] unless [Measured]), proposer. One header
    line. *)
