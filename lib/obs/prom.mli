(** Prometheus text-exposition writer for the {!Metrics} registry.

    Registry names map to metric families by replacing characters
    outside [[a-zA-Z0-9_:]] with underscores ("serve.queue_wait_ms"
    becomes [serve_queue_wait_ms]); labeled registry names (see
    {!Metrics.labeled_name}) are split back into family + label pairs.
    Histograms render the full cumulative [_bucket] / [_sum] / [_count]
    triple with [le="+Inf"] equal to the total, so a real scraper would
    compute the same quantiles {!Summary} prints. A strict hand-rolled
    {!check} validates the format back, mirroring
    {!Chrome_trace.check}. *)

val sanitize : string -> string
(** Metric-family name for a registry name. *)

val of_dump : (string * Metrics.snapshot) list -> string * int
(** Exposition text for a {!Metrics.dump}, plus the number of sample
    lines. Families render in first-appearance order with one [# TYPE]
    line each; label variants of one family are grouped even when the
    registry sort order interleaves other names between them. *)

val save : string -> int
(** Write the current registry to [path] (atomic: temp file + rename);
    returns the number of sample lines written. *)

val check : string -> (int, string) result
(** Validate exposition text: every sample's family must carry a single
    [# TYPE] line ([_bucket]/[_sum]/[_count] suffixes resolve to their
    histogram family), label sets must parse with Prometheus escaping,
    no duplicate samples, and each histogram series must have ascending
    [le] bounds, cumulative counts, a final [le="+Inf"] bucket equal to
    its [_count], and a [_sum]. [Ok samples] on success. *)

val check_file : string -> (int, string) result
