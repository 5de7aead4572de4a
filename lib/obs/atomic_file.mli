(** Whole-file writes that readers and concurrent writers never see half
    done. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path f] runs [f] on a channel to a temp file next to [path],
    named uniquely per process and call, closes it and renames it over
    [path]. If [f], the close or the rename raises, the channel is closed,
    the temp file removed and the exception re-raised; [path] is then
    untouched. *)
