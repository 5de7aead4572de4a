(** The tuning log: one structured record per tuning trial.

    This is the AutoTVM/Ansor-style "tuning records" artifact: every
    candidate a tuner evaluates, or skips by a lower bound, is logged with
    its workload signature, candidate index, printable config, outcome and
    estimated latency —
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

type trial = {
  engine : string;  (** "hidet", "autotvm", "ansor", ... *)
  workload : string;  (** workload signature, e.g. the schedule-cache key *)
  index : int;  (** candidate index in the enumeration / trial number *)
  config : unit -> string;
      (** printable schedule config ("" if unavailable), formatted only
          when read: most rows of a cold compile are pruned candidates that
          only {!save_tsv} ever prints *)
  outcome : outcome;
  latency : float;  (** estimated seconds; [infinity] unless [Measured] *)
}

val outcome_to_string : outcome -> string

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
    latency in microseconds ([-1] unless [Measured]). One header line.
    Written through {!Atomic_file.write}. *)
