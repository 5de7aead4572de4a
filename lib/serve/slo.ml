(* Multi-window burn-rate alerting over the deadline-miss ratio,
   evaluated in virtual time.

   The classic SRE recipe: an SLO (say 99% of requests meet their
   deadline) grants an error budget (1%). The burn rate of a window is
   (bad fraction in the window) / budget — burn 1 means the budget lasts
   exactly the SLO period, burn 10 means it is gone in a tenth of it. A
   rule pairs a fast window (catches the spike quickly) with a slow one
   (confirms it is sustained, not a blip) and fires only when BOTH burn
   at or above the threshold. Everything here runs over the virtual
   timestamps of the deterministic schedule, so alerts are reproducible
   from the seed like every other serve artifact. *)

type rule = {
  rname : string;
  fast : float;  (* window lengths, virtual seconds *)
  slow : float;
  burn : float;  (* firing threshold for both windows *)
}

type config = {
  objective : float;  (* good-request target in (0, 1), e.g. 0.99 *)
  min_count : int;  (* fast-window samples required before firing *)
  rules : rule list;
}

let validate cfg =
  if not (cfg.objective > 0. && cfg.objective < 1.) then
    invalid_arg "Slo: objective must be in (0, 1)";
  if cfg.min_count < 1 then invalid_arg "Slo: min_count must be >= 1";
  List.iter
    (fun r ->
      if r.fast <= 0. || r.slow <= 0. || r.fast > r.slow then
        invalid_arg "Slo: rule windows must satisfy 0 < fast <= slow";
      if r.burn <= 0. then invalid_arg "Slo: burn threshold must be > 0")
    cfg.rules

(* Window lengths scale with the run: a production page rule is
   5m/1h-over-30d; a serve run lasting [duration] virtual seconds uses
   the same proportions. *)
let default ~duration =
  {
    objective = 0.99;
    min_count = 10;
    rules =
      [
        { rname = "page"; fast = duration /. 20.; slow = duration /. 4.; burn = 10. };
        { rname = "ticket"; fast = duration /. 8.; slow = duration /. 2.; burn = 2. };
      ];
  }

type sample = { t : float; good : bool }

type alert = {
  rule : rule;
  fired : bool;
  at : float;  (* virtual time of the first firing sample; nan if never *)
  fast_burn : float;  (* at [at], or at the closest approach when not fired *)
  slow_burn : float;
}

type verdict = {
  total : int;
  bad : int;
  miss_ratio : float;
  budget : float;
  alerts : alert list;
}

let burn_of ~budget ~bad ~count =
  if count = 0 then 0.
  else
    let ratio = float_of_int bad /. float_of_int count in
    if budget <= 0. then if ratio > 0. then Float.infinity else 0.
    else ratio /. budget

(* One left-to-right pass per rule: at each sample time [now], two
   trailing windows ((now - w, now]) advance monotonically, so a pair of
   two-pointer cursors gives windowed bad counts in O(n). *)
let eval_rule ~budget ~min_count samples n rule =
  let fired = ref false in
  let at = ref Float.nan in
  let fb = ref 0. and sb = ref 0. in
  let best = ref Float.neg_infinity in
  let f_start = ref 0 and f_bad = ref 0 and f_cnt = ref 0 in
  let s_start = ref 0 and s_bad = ref 0 and s_cnt = ref 0 in
  let i = ref 0 in
  while (not !fired) && !i < n do
    let sm = samples.(!i) in
    if not sm.good then begin
      Stdlib.incr f_bad;
      Stdlib.incr s_bad
    end;
    Stdlib.incr f_cnt;
    Stdlib.incr s_cnt;
    let drop start bad cnt w =
      while samples.(!start).t <= sm.t -. w do
        if not samples.(!start).good then Stdlib.decr bad;
        Stdlib.decr cnt;
        Stdlib.incr start
      done
    in
    drop f_start f_bad f_cnt rule.fast;
    drop s_start s_bad s_cnt rule.slow;
    let fast_burn = burn_of ~budget ~bad:!f_bad ~count:!f_cnt in
    let slow_burn = burn_of ~budget ~bad:!s_bad ~count:!s_cnt in
    if !f_cnt >= min_count then begin
      if fast_burn >= rule.burn && slow_burn >= rule.burn then begin
        fired := true;
        at := sm.t;
        fb := fast_burn;
        sb := slow_burn
      end
      else begin
        (* closest approach: the sample where the weaker window burned
           hottest, reported so a non-firing verdict still says how
           close it came *)
        let m = Float.min fast_burn slow_burn in
        if m > !best then begin
          best := m;
          fb := fast_burn;
          sb := slow_burn
        end
      end
    end;
    Stdlib.incr i
  done;
  { rule; fired = !fired; at = !at; fast_burn = !fb; slow_burn = !sb }

let evaluate cfg samples =
  validate cfg;
  let samples =
    Array.of_list (List.stable_sort (fun a b -> Float.compare a.t b.t) samples)
  in
  let n = Array.length samples in
  let bad = Array.fold_left (fun acc s -> if s.good then acc else acc + 1) 0 samples in
  let budget = 1. -. cfg.objective in
  {
    total = n;
    bad;
    miss_ratio = (if n = 0 then 0. else float_of_int bad /. float_of_int n);
    budget;
    alerts =
      List.map (eval_rule ~budget ~min_count:cfg.min_count samples n) cfg.rules;
  }

let fired v = List.exists (fun a -> a.fired) v.alerts

let verdict_to_json v =
  let module J = Hidet_obs.Json in
  let num x = J.Num (J.round_sig 9 x) and int n = J.Num (float_of_int n) in
  let alert a =
    J.Obj
      [
        ("rule", J.Str a.rule.rname);
        ("fired", J.Bool a.fired);
        ("at", if a.fired then num a.at else J.Null);
        ("fast_window_s", num a.rule.fast);
        ("slow_window_s", num a.rule.slow);
        ("burn_threshold", num a.rule.burn);
        ("fast_burn", num a.fast_burn);
        ("slow_burn", num a.slow_burn);
      ]
  in
  J.Obj
    [
      ("total", int v.total);
      ("bad", int v.bad);
      ("miss_ratio", num v.miss_ratio);
      ("budget", num v.budget);
      ("alerts", J.Arr (List.map alert v.alerts));
    ]

let pp_verdict fmt v =
  List.iter
    (fun a ->
      if a.fired then
        Format.fprintf fmt
          "  alert      %s FIRING at t=%.3fs (burn fast=%.1fx slow=%.1fx >= %.0fx)@."
          a.rule.rname a.at a.fast_burn a.slow_burn a.rule.burn
      else
        Format.fprintf fmt
          "  alert      %s ok (peak burn fast=%.1fx slow=%.1fx < %.0fx)@."
          a.rule.rname
          (Float.max 0. a.fast_burn)
          (Float.max 0. a.slow_burn)
          a.rule.burn)
    v.alerts
