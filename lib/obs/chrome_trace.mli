(** Chrome trace-event JSON export.

    Produces the JSON-object flavour of the trace-event format, loadable in
    Perfetto ([ui.perfetto.dev]) or [chrome://tracing]: spans become
    complete ("ph":"X") events with microsecond [ts]/[dur], instants become
    "ph":"i" events, attributes become [args], and each {!Trace} track
    becomes one named thread so spans from tuner worker domains land on
    their own rows. Events are emitted in start-time order.

    {!check} is the matching validator (used by [hidetc trace-check] and
    [make trace-smoke]): the file must parse as JSON, carry a [traceEvents]
    array, and every event must have a string [name] and numeric,
    non-negative [ts]/[dur]. *)

val to_string : Trace.event list -> string

val save : string -> Trace.event list -> unit
(** Write through {!Atomic_file.write}. *)

val check : string -> (int, string) result
(** Validate trace JSON text; [Ok n] is the number of span/instant events
    (metadata records excluded). *)

val check_file : string -> (int, string) result
