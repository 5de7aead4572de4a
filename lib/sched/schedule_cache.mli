(** Process-global, cross-compilation schedule cache.

    Tuning once per distinct [(device, key)] pair and reusing the winner
    across models, engines and repeated benchmark runs is what makes the
    "tune within one minute" claim hold at the application level: a
    ResNet re-compile, or a second model sharing matmul shapes, performs
    zero fresh trials. Entries store the winning candidate's {e index} into
    the deterministic space enumeration (so the cache is generic over
    candidate types), its printed config and the tuner stats. A
    [space_size] mismatch, a candidate at that index that prints
    differently, or a winner that no longer instantiates retunes.

    Each entry also holds, in this process only, the winner's kernel: the
    {e instance memo}. A fresh tune stores the kernel the tuner built; the
    first hit stores its instantiation; later hits return that same
    (physically equal) {!Compiled.t}. Replacing the entry ({!add}, {!load},
    a retune) or {!clear} drops the memo, and {!save} never writes it, so a
    new process instantiates once per distinct key.

    All operations are safe to call from any domain (mutex-protected). *)

(** Everything besides the device that decides a tuning run's winner.
    {!to_string} is the only code that builds key strings. *)
module Key : sig
  type search = Exhaustive | Guided of Search.guided_params

  type t = {
    workload : string;  (** workload and candidate restrictions; no ['#'] *)
    search : search;
    fidelity : Hidet_gpu.Perf_model.fidelity;
  }

  val to_string : t -> string
  (** [workload], then for a guided search ["#guided"] and the five guided
      parameters, then ["#cycle"] under the cycle fidelity. Distinct keys
      give distinct strings. Raises [Invalid_argument] if [workload]
      contains ['#']. *)
end

type entry = {
  best_index : int;  (** winner's index in the candidate enumeration *)
  space_size : int;  (** length of the enumeration when tuned *)
  config : string;  (** the winner printed by [show]: its fingerprint *)
  trials : int;
  rejected : int;
  simulated_seconds : float;
  best_latency : float;
}

type outcome =
  | Fresh of Tuner.stats  (** this call ran the tuner *)
  | Hit of entry
      (** served from the cache: the instance memo's kernel, or the winner
          instantiated once to fill it *)

(** {1 The tuning service} *)

val tune :
  ?seconds_per_trial:float ->
  ?parallel:bool ->
  ?workers:int ->
  ?engine:string ->
  show:('a -> string) ->
  ?search:'a Search.t ->
  ?fidelity:Hidet_gpu.Perf_model.fidelity ->
  ?lower_bound:('a -> float) ->
  ?instance:string ->
  device:Hidet_gpu.Device.t ->
  workload:string ->
  candidates:'a list ->
  compile:('a -> Compiled.t) ->
  unit ->
  ('a * Compiled.t * outcome) option
(** Like {!Tuner.tune}, but consults the cache first under
    the {!Key.t} of [workload], [search] and [fidelity] and the device
    name.
    On a hit (zero fresh trials) the instance memo under [?instance]
    answers; if it is empty, the stored winner is instantiated once and
    kept there. [?instance] (default [""]) must name everything [compile]
    reads that [workload] does not (a layernorm's [eps], say): it keys the
    memo only, never the entry or the saved file. On a miss or a stale entry the tuner runs (with [?search],
    default {!Search.Exhaustive}, [?fidelity], default [`Analytic], and
    [?lower_bound], which changes no entry field but [trials])
    and its result is stored with [show winner] as the fingerprint. The
    tuner's spans and log records carry the key string. Each call bumps
    the ["schedule_cache.hits"/"misses"/"stale"] metrics and, when
    tracing, drops a matching instant event; a hit the memo answers also
    bumps ["schedule_cache.instance_reuses"]. *)

(** {1 Direct cache access} *)

val find : device:string -> key:string -> entry option
(** Pure lookup — no hit/miss accounting. Only {!tune} can tell a genuine
    hit from a stale entry, so {!tune} owns the counters below. *)

val add : device:string -> key:string -> entry -> unit
val clear : unit -> unit
val size : unit -> int

val keys_for_device : string -> string list
(** Sorted key strings cached for one device name. Cache entries are
    keyed by (device, key), so devices with different capabilities never
    share entries; the shard test suite uses this to assert the per-device
    key sets stay disjoint across a heterogeneous cluster. *)

val hits : unit -> int
(** {!tune} calls served entirely from the table since the last {!clear}
    (always equal to the ["schedule_cache.hits"] metric delta). *)

val misses : unit -> int
(** {!tune} calls that ran the tuner. A stale lookup counts here too — it
    cost a full tuning run — and additionally in {!stale}. *)

val stale : unit -> int
(** {!tune} calls whose stored entry could not be served. *)

(** {1 Persistence}

    A versioned, line-oriented text format (v3: nine columns, with the
    fingerprint, then the MD5 of those nine) for warm-starting across
    processes ([bench/main.exe --cache], [hidetc --cache]). *)

val save : string -> unit
(** Write the whole cache to [path] (atomically, via a temp file). *)

val load : string -> (int, string) result
(** Merge entries from [path] into the cache; returns how many loaded.
    [Error] on an unreadable file or a wrong header (foreign file, or
    another version: v1 has no fingerprint, v2 no line digest); a line
    that fails its digest or does not parse is skipped, so every entry
    loaded is one that {!save} wrote, under the key it was saved with. *)
