(** Native codegen backend: kernel IR → OCaml source → [ocamlopt -shared]
    → [Dynlink].

    The third execution backend, after the tree-walking interpreter
    ({!Interp}) and the closure compiler ({!Compile_exec}). Each kernel is
    pretty-printed to a self-contained OCaml unit — flat-array loops over
    the thread/block index ranges, buffer dimensions hoisted to let-bound
    ints, the same per-dimension bounds checks the closures perform
    (followed by unsafe accesses they make safe), and statically
    type-specialized int/float/bool bodies with no per-statement dispatch —
    then compiled with [ocamlfind ocamlopt -shared], loaded with
    [Dynlink.loadfile_private], and claimed through {!Exec_registry}.

    Results, statement counts and raised errors are bit-identical to
    {!Compile_exec} (property-tested in [test_exec_ocaml] and cross-checked
    by the fuzzer's [native] path); only the execution model differs.

    Compiled units are memoized per process on the generated source text.
    The source holds no process-global id: loop and let variables are named
    in binding order, buffers by slot number. Alpha-equivalent kernels (a
    recompile after [Schedule_cache.clear], the same kernel in two plans)
    therefore print to byte-equal source, and a distinct kernel pays
    ocamlopt + dynlink once per process. A hit means byte-equal source, so
    it can never return another kernel's unit. [Compiled.run] keeps each
    kernel's {!compiled} value as its launch handle, so codegen and the
    memo lookup run once per kernel, not once per launch.

    The backend degrades, never fails, when the toolchain is missing:
    {!available} probes once per process (native [Dynlink], [ocamlfind] on
    [PATH], the dune build tree's [.cmi] directories, and an end-to-end
    smoke compile+load) and callers such as [Compiled.run] fall back to the
    closure backend with the reason logged. *)

type compiled

val available : unit -> (unit, string) result
(** Probe the toolchain once per process; [Error reason] when native
    compilation cannot work here (bytecode host, no [ocamlfind], not
    running from a dune build tree, or the smoke compile failed). *)

val source : Hidet_ir.Kernel.t -> string
(** The generated unit body (without the registration trailer) — for
    debugging and golden tests. Does not require the toolchain. *)

val compile : Hidet_ir.Kernel.t -> compiled
(** Verify, codegen, and compile+load (memoized on the source text; a hit
    bumps ["sim.native.memo_hits"], a build ["sim.native.units"]). Raises
    [Failure] when {!available} is an [Error] or the toolchain misbehaves —
    callers wanting graceful degradation check {!available} first. *)

val kernel : compiled -> Hidet_ir.Kernel.t
val parallel_grid : compiled -> bool

val run_compiled :
  ?workers:int -> compiled -> (Hidet_ir.Buffer.t * float array) list -> unit
(** Launch with the same semantics, metrics (["sim.threads"],
    ["sim.statements"], ["sim.exec_us"], parallel/sequential block
    counters) and ["sim.exec"] span as [Compile_exec.run_compiled]; blocks
    run across [workers] domains under the same conditions ([~workers:1]
    runs them sequentially). *)

val run :
  ?workers:int ->
  Hidet_ir.Kernel.t ->
  (Hidet_ir.Buffer.t * float array) list ->
  unit

val run_alloc :
  ?workers:int ->
  Hidet_ir.Kernel.t ->
  inputs:(Hidet_ir.Buffer.t * float array) list ->
  outputs:Hidet_ir.Buffer.t list ->
  float array list
(** Allocate zeroed arrays for [outputs], run, return them in order. *)
