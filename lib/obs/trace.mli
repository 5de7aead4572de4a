(** Structured tracing: nestable spans with process-relative timestamps and
    key/value attributes.

    Instrumented code talks to a process-global {e recorder}. The default
    discards everything: every operation then reduces to one atomic load
    (and {!enter} returns a shared constant), so instrumentation costs
    ~nothing when tracing is off. {!with_collector} turns the same call
    sites into an in-memory event log that the exporters ({!Chrome_trace},
    {!Summary}) render.

    Domain safety: events may be recorded from any domain (the tuner's
    worker domains included). Each domain records onto its own {e track} — a
    small integer assigned from a free list on the domain's first event and
    released when the domain exits, so the finite pool of worker tracks is
    reused across tuning calls instead of growing one track per short-lived
    domain. Within a track, spans follow strict enter/exit discipline, so
    two spans on one track either nest or are disjoint — which is exactly
    the containment the Chrome trace viewer uses to draw nesting. *)

type attr = string * string

type flow_dir = Flow_start | Flow_step | Flow_end
(** Position of a flow point in its arc: Perfetto draws an arrow from
    each flow point to the next one carrying the same id. *)

type event =
  | Span of {
      name : string;
      track : int;
      ts_us : float;  (** start, microseconds since process start *)
      dur_us : float;  (** duration, >= 0 *)
      attrs : attr list;
    }
  | Instant of { name : string; track : int; ts_us : float; attrs : attr list }
  | Flow of {
      name : string;
      track : int;
      ts_us : float;
      id : int;  (** arc identity; points sharing an id are connected *)
      dir : flow_dir;
      attrs : attr list;
    }

val event_track : event -> int
val event_ts : event -> float

val enabled : unit -> bool
(** [true] iff a collector is installed. One atomic load. *)

(** {1 Spans} *)

type span
(** An open span handle. With tracing off, handles are a shared constant
    and all operations on them are free. *)

val enter : ?attrs:attr list -> string -> span
(** Open a span at the current time on the calling domain's track. *)

val add : span -> string -> string -> unit
(** Attach an attribute to an open span (e.g. a result discovered while the
    span was running). No-op when tracing is off. *)

val exit : span -> unit
(** Close the span and record it. No-op when tracing is off. *)

val span : ?attrs:(unit -> attr list) -> string -> (span -> 'a) -> 'a
(** [span name f] runs [f] inside a span, passing the open handle so [f]
    can {!add} attributes it discovers while running (the shared constant
    when tracing is off). [attrs] is a thunk so attribute lists are never built
    when tracing is off. If [f] raises, the span is recorded with an
    ["error"] attribute and the exception rethrown. *)

val instant : ?attrs:attr list -> string -> unit
(** A zero-duration point event. *)

val flow : ?attrs:attr list -> id:int -> dir:flow_dir -> string -> unit
(** A flow point at the current time on the calling domain's track. Emit
    one inside each span a logical item (a serve request, a batch)
    passes through, with a stable [id], and the trace viewer renders the
    item's path across tracks as a connected arc: [Flow_start] inside
    the first span, [Flow_step] inside intermediate ones, [Flow_end]
    inside the last. Binds to the {e enclosing} span — emit it between
    that span's enter and exit. No-op when tracing is off. *)

val with_collector : (unit -> 'a) -> 'a * event list
(** Run [f] with a fresh in-memory collector installed, restoring the
    previous recorder afterwards; returns [f]'s result and the collected
    events, sorted by start time (ties: longer span first, so a parent
    precedes its children). *)
