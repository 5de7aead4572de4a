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

    Only the thread body is native: {!Launch} runs the loaded unit's entry
    with the slot layout, per-block memory model and grid loop every
    compiled backend shares. For a kernel that {!Launch.phased} accepts the
    unit is one block function instead, transliterating the closure
    backend's phased compile: per-thread code between block-level steps
    becomes a segment closure pushed on an {!Exec_registry.interval} and
    flushed thread by thread at each barrier; uniform loops, branches and
    [Let]s are block-level OCaml that the segments capture; a non-uniform
    [Let] whose body spans a barrier keeps its value in a per-thread array.
    Any other kernel with a barrier gets no unit: {!compile} returns
    {!Launch.reference} without codegen. A register-tile nest that {!Launch.nest}
    accepts becomes one range check on its invariant parts, bound once,
    guarding its stores straight-line with unchecked accesses and its
    statement count added in one step; the ordinary code runs when the
    check fails. Results, statement counts and raised errors
    are bit-identical to the closure backend's (property-tested in
    [test_exec_ocaml] and cross-checked by the fuzzer's [native] path).

    Compiled units are memoized per process on {!key}, a digest of the
    kernel itself taken before any printing, so a hit runs no codegen.
    The key leaves out only variable and buffer ids, which the source never
    holds either: loop and let variables are named in binding order,
    buffers by slot number. Alpha-equivalent kernels (a recompile after
    [Schedule_cache.clear], the same kernel in two plans) therefore share
    one unit, and a distinct kernel pays codegen, ocamlopt and dynlink
    once per process. The memo keeps the digest, not the source, for as
    long as the process runs. [Compiled.run] keeps each kernel's
    {!Launch.t}, so the key and the memo lookup run once per kernel, not
    once per launch.

    The backend degrades, never fails, when the toolchain is missing:
    {!available} probes once per process (native [Dynlink], [ocamlfind] on
    [PATH], the dune build tree's [.cmi] directories, and an end-to-end
    smoke compile+load) and callers such as [Compiled.run] fall back to the
    closure backend with the reason logged. *)

val available : unit -> (unit, string) result
(** Probe the toolchain once per process; [Error reason] when native
    compilation cannot work here (bytecode host, no [ocamlfind], not
    running from a dune build tree, or the smoke compile failed). *)

val source : Hidet_ir.Kernel.t -> string
(** The generated unit body (without the registration trailer) — for
    debugging and golden tests. Does not require the toolchain. Raises
    [Invalid_argument] for a kernel with a barrier that {!Launch.phased}
    refuses. *)

val key : Hidet_ir.Kernel.t -> Digest.t
(** The memo key: the MD5 of one walk over the whole kernel (name, launch
    dims, pipeline stages, buffers with their names, operators, literals by
    their bits, [unroll] flags, comments, bound variables' dtypes), with
    buffers numbered by first appearance and variables by first binding.
    Equal keys give byte-equal {!source}; exposed for the tests that check
    so. *)

val compile : Hidet_ir.Kernel.t -> Launch.t
(** Verify; for a kernel with a barrier that {!Launch.phased} refuses,
    return {!Launch.reference} (no codegen, no unit). Otherwise look the
    {!key} up in the memo. A hit bumps
    ["sim.native.memo_hits"] and rebuilds only the slot layout; a miss runs
    codegen (the ["sim.native.codegen"] span and
    ["sim.native.codegen_us"] count misses only), ocamlopt and dynlink,
    and bumps ["sim.native.units"]. Returns a launch handle whose entry is
    the loaded unit's. Raises [Failure] when {!available} is an [Error] or
    the toolchain misbehaves — callers wanting graceful degradation check
    {!available} first. *)
