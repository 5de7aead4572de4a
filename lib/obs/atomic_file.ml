(* Temp names are unique per process and per call: with a fixed
   [path ^ ".tmp"], two concurrent savers of one path (e.g. `hidetc serve`
   and a bench run sharing --cache) clobber each other's partial writes
   before the rename, and a stray file or directory at that name makes
   every save fail. With unique names each rename is atomic on its own
   complete file, so the last saver wins and the file is always whole. *)
let counter = Atomic.make 0

let write path f =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add counter 1)
  in
  try
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        f oc;
        close_out oc);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
