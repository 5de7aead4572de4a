(** Closure-compiling execution backend for IR kernels.

    {!Interp} walks the statement tree for every thread of every block,
    re-resolving variables through a map and buffers through hash tables at
    each step. This backend instead walks the [Kernel.t] {e once} and
    compiles it to [unit -> unit] thread programs:

    - variables live in per-thread unboxed frames ([int array] /
      [float array] / [bool array]) at slots fixed at compile time;
      [threadIdx] and [blockIdx] sit in two pinned int slots;
    - buffers are resolved at compile time to slots in a per-thread
      [float array array] (no [Hashtbl] in the hot loop);
    - [Buffer.flat_index] is strength-reduced to precomputed strides with
      per-dimension bounds checks identical to the reference;
    - expression trees are specialized into unboxed [float]/[int]/[bool]
      closures (a boxed [Expr.value] fallback handles the rare
      statically-untypeable expression, with {!Expr.eval}'s exact dynamic
      dispatch);
    - MMA tiles index by stride arithmetic instead of per-element list
      rebuilding.

    {b Operand forms.} A closure call per AST node is what this backend
    pays most for, so leaves are not closures. Each int operand is
    classified at compile time as a constant, a frame slot (variables,
    [threadIdx], [blockIdx]) or a general closure, and each float operand
    as a constant, a frame slot, a slot-indexed load or a general closure.
    A parent closure reads the non-closure forms inline. Int arithmetic
    gets one closure per operator and pair of operand forms, so the hot
    closures never branch on a form at run time (such a branch, shared by
    every instance of the closure, predicts badly). A load or store whose
    indices are constants or slots, at most three of them slots, of any
    rank, is a precomputed base plus three strided slot terms, checked in
    the reference's order and read inline by its parent. A division or
    remainder by a positive power-of-two constant shifts or masks a
    non-negative dividend.

    {b Invariant index arithmetic.} Task mappings lower to index
    arithmetic over [threadIdx] and loop variables, such as
    [((threadIdx.x % 32) / 16) % 2], that most statements would recompute.
    An int subexpression whose leaves are constants, [threadIdx],
    [blockIdx] or int variables, built with [Add], [Sub], [Mul], [Min],
    [Max], [Neg], [Abs] or [Div]/[Mod] by a non-zero constant, cannot raise.
    It is computed into its own frame slot once per entry of the innermost
    scope that binds one of its variables (the thread entry, one [For]
    iteration or an int [Let]), and equal subexpressions of a scope share
    one slot. Hoisted slots sit above the binder stack (pinned slots plus
    the kernel's deepest [For]/[Let] nesting), so no sibling scope reuses
    them. An int [Let] of such a value shares its slot. Loads, selects,
    bools and divisions by anything but a non-zero constant are never
    hoisted, so no error moves.

    {b Register-tile nests.} Task mappings lower a tile's [repeat]
    dimensions to [unroll] loops over register fragments. A nest that
    {!Launch.nest} accepts (constant extents at most
    [Unroll.default_threshold], stores all of one form: an FMA
    [c = x + y * z], a copy [d = s] or a constant fill [d = f], each role
    over one buffer, each index an invariant part plus a per-element
    constant) runs as one closure: [Matmul_template]'s accumulator fill,
    fragment loads, shared-memory staging and FMA. The invariant parts
    compile through the hoisting memo to frame slots set before the nest
    runs. At entry the nest checks each dimension's range
    [\[inv + min c, inv + max c\]]; in range, it adds its statement count
    in one step and runs the stores over precomputed offsets from the
    roles' bases, where nothing can raise. Out of range, it runs the nest
    compiled the ordinary way beside it, which raises the reference's error
    at the reference's statement with the earlier stores done. An [unroll]
    loop that is not such a nest holds no nest of its own. [compile]
    counts the nests in [sim.compile.nests], those of FMA form also in
    [sim.compile.fma_nests], and the hoisted subexpressions in
    [sim.compile.hoisted].

    {b Lane nests.} A perfect nest of constant-extent [For]s ([unroll] or
    not) that {!Launch.nest} refuses, of at most 256 elements, whose leaf
    is one [Store], optionally under an [If] without [else], runs as a
    lane nest: [Matmul_template]'s predicated global loads (with the fused
    im2col index arithmetic), its guarded fused epilogue, and the rule
    convolution and pooling kernels' window loops. Indices, the guard and
    every [Select] condition must be pure: the hoisting set's operators,
    int comparisons, [&&], [||] and [!]. The stored value is built from
    constants, variables, loads, arithmetic, float functions and
    [Select]s, typed as [Expr.eval] types it; no load may read the stored
    buffer, except in a window reduction [b\[i\] = b\[i\] + x] with [i]
    free of the nest's variables and [x] not reading [b]. At entry the nest
    evaluates every subexpression once: as a row over the elements, or,
    free of the nest's variables and loads, as one scalar the ordinary
    compiler computes. A load reads only in the lanes whose [Select] and
    [If] path takes it (the others hold [+0.]), and checks each taken
    index; then the stored elements are checked. Only then does it store,
    in element order (a reduction folds [x] into [b\[i\]] in element order,
    so every bit matches), and add the nest's exact statement count, one
    per [For] execution and per [If] and per store executed. An index that
    delinearizes an [x] over the buffer's strides, as the fused epilogue
    writes its output, is checked as [0 <= x < size]. If a check fails, or
    a stored parameter's array is physically one that a load reads, the
    nest runs on {!Interp.exec}, the reference's own statement walker,
    over the frame's variables and arrays, so it raises [Interp]'s error
    at [Interp]'s statement with the earlier stores done; no compiled copy
    of the nest is kept for that case. [compile] counts
    the lane nests in [sim.compile.lane_nests]. The native backend keeps
    its straight-line code for these loops.

    {b Unboxed floats.} Without flambda, every closure returning a [float]
    boxes it, which is a minor-heap allocation per call. Float arithmetic
    reads its operands inline, so only its result is boxed, and a store
    reads its value inline. A register FMA
    [c\[i\]\[j\] = c\[i\]\[j\] + a\[i\] * b\[j\]] outside a nest is a
    single closure that allocates nothing.

    Every form keeps the evaluation order of the nested closures it
    replaces (indices left to right, then the value; a binop's right
    operand before its left), so results, statement counts and raised
    exceptions are unchanged.

    {b Phased barriers.} A kernel that {!Launch.phased} accepts compiles
    to a block function instead of a thread entry. Code without a barrier
    compiles as above and joins the per-thread code pending since the last
    block-level step; a barrier pushes it, with the barrier's count, as one
    segment and flushes the interval, so every thread runs its segments in
    ascending tid order, its frame persisting across intervals. A uniform
    [For] or [If] pushes the pending code (with its own count) and then
    loops or branches once per block, on [Expr.eval] of its extent or
    condition over [blockIdx] and the uniform variables; a loop body's
    first segment sets the loop variable to the iteration it was pushed in
    and runs the iteration's hoisted inits. The tail of one iteration and
    the head of the next therefore run in one interval, as they would in a
    fiber, so results, statement counts and raised exceptions are the
    fiber schedule's. Other kernels with a barrier keep the thread entry,
    whose [Sync_threads] performs {!Interp.Sync} for {!Launch}'s fibers.

    The closures capture no scratch state, so a compiled kernel is shared
    by the domains running its blocks. The frames live in the code a
    launch binds to each thread storage ({!Launch.body}): one frame per
    storage on the thread path (per worker domain on the parallel path),
    one per thread of a block on the phased path, and one set of lane
    rows shared by a block's frames, as no nest spans a barrier. A thread
    starts by setting the pinned [threadIdx] and [blockIdx] slots and
    zeroing its statement count; nothing else is reset, because every
    other slot, row and cell is written before it is read (the constant
    cells when the frames are built). {!Launch} runs the code: it owns the slot
    layout, the per-block memory model, the barrier fibers of the
    fallback and the grid loop. *)

val compile : Hidet_ir.Kernel.t -> Launch.t
(** Verify ([Verify.kernel_exn], like [Interp.run]) and compile the
    kernel to a launch handle. Records compile wall time in the
    [sim.compile_us] metric and a [sim.compile] trace span, and bumps
    [sim.compile.nests], [sim.compile.fma_nests],
    [sim.compile.lane_nests] and [sim.compile.hoisted]. [Launch.run
    compile] is a drop-in replacement for [Interp.run]. *)
