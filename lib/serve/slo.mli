(** Multi-window burn-rate SLO alerting over virtual time.

    An SLO (e.g. 99% of requests meet their deadline) grants an error
    budget (1%); a window's {e burn rate} is its bad fraction divided by
    that budget. Each rule pairs a fast window (catches a spike quickly)
    with a slow one (confirms it is sustained) and fires only when both
    burn at or above the rule's threshold — the standard SRE recipe,
    here evaluated over the deterministic schedule's virtual timestamps
    so alerts reproduce from the seed like every other serve
    artifact. *)

type rule = {
  rname : string;
  fast : float;  (** fast window length, virtual seconds *)
  slow : float;  (** slow window length, [>= fast] *)
  burn : float;  (** firing threshold for both windows *)
}

type config = {
  objective : float;  (** good-request target in (0, 1) *)
  min_count : int;  (** fast-window samples required before firing *)
  rules : rule list;
}

val validate : config -> unit

val default : duration:float -> config
(** 99% objective with the production 5m/1h-burn-10 ("page") and
    30m/6h-burn-2 ("ticket") shapes scaled to a run of [duration]
    virtual seconds. *)

type sample = { t : float; good : bool }

type alert = {
  rule : rule;
  fired : bool;
  at : float;  (** first firing time; [nan] when not fired *)
  fast_burn : float;
      (** burn rates at [at] when fired; otherwise at the closest
          approach (the sample where the weaker window burned hottest) *)
  slow_burn : float;
}

type verdict = {
  total : int;
  bad : int;
  miss_ratio : float;
  budget : float;  (** [1 - objective] *)
  alerts : alert list;  (** one per rule, in rule order *)
}

val evaluate : config -> sample list -> verdict
(** Windows are trailing: at each sample time [t], a window [w] covers
    [(t - w, t]]. Samples need not be sorted. O(n) per rule. *)

val fired : verdict -> bool
(** Whether any rule fired. *)

val verdict_to_json : verdict -> Hidet_obs.Json.t
(** Machine-readable [alerts] section for serve JSON output; numbers keep
    9 significant digits. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** One ["  alert ..."] line per rule, matching {!Server.pp_report}'s
    indentation. *)
