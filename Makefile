# Convenience targets; CI and the tier-1 gate run `make check`.

.PHONY: all test check trace-smoke fuzz-smoke bench-interp-smoke native-smoke serve-smoke obs-serve-smoke shard-smoke tune-smoke fidelity-smoke bench-compile clean

all:
	dune build @all

test:
	dune runtest

# End-to-end observability smoke test: compile a real model with tracing
# and profiling on, then validate the emitted Chrome trace JSON (parses,
# non-empty, well-formed events). `trace-check` exits non-zero otherwise.
TRACE_SMOKE := /tmp/hidet-trace-smoke.json

trace-smoke:
	dune build bin/hidetc.exe
	./_build/default/bin/hidetc.exe compile --model mobilenet_v2 \
	  --engine hidet --trace $(TRACE_SMOKE) --profile > /dev/null
	./_build/default/bin/hidetc.exe trace-check $(TRACE_SMOKE)

# Differential fuzzing smoke test: a fixed-seed run of the compute/graph
# fuzzer across all five lowering paths (reference vs rule-based vs
# template vs fused vs baselines, plus compiled-vs-legacy backend
# parity). Any failure prints a shrunk, re-runnable repro (seed + offset
# + case text). The closure-compiled backend made each case cheap enough
# to double the case count and still finish faster than the old 200-case
# run. See EXPERIMENTS.md.
fuzz-smoke:
	dune build bin/hidetc.exe
	./_build/default/bin/hidetc.exe fuzz --seed 42 --cases 400 --quiet

# Simulator backend smoke test: compare the legacy tree-walking
# interpreter against the closure-compiled backend on the quickstart
# matmul and a fused conv; exits non-zero if the compiled backend is not
# faster. Writes its report under _build/ so it never clobbers the
# committed full-mode BENCH_interp.json (refresh that one with
# `./_build/default/bench/main.exe --only interp`).
bench-interp-smoke:
	dune build bench/main.exe
	./_build/default/bench/main.exe --only interp --quick \
	  --out _build/BENCH_interp.smoke.json

# Native backend smoke test: fuzz the dynlinked native backend against
# the closure backend (bit-exact) on a fixed seed, then re-run the interp
# bench, whose gate also requires native > closure statements/sec on the
# quickstart matmul whenever the toolchain probe succeeds. On a machine
# without ocamlfind/ocamlopt both steps degrade to visible skips (the
# fuzz path reports Skip with the probe's reason; the bench drops the
# native column with a note) and the target still passes — the native
# backend is an accelerator, not a requirement.
native-smoke:
	dune build bin/hidetc.exe bench/main.exe
	./_build/default/bin/hidetc.exe fuzz --paths native --seed 42 \
	  --cases 400 --quiet
	./_build/default/bench/main.exe --only interp --quick \
	  --out _build/BENCH_interp.native-smoke.json

# Serving smoke test: a couple of seconds of simulated traffic against a
# tiny model through the dynamic batcher, including an overload burst and
# one really-executed, bit-verified run. The experiment exits non-zero
# unless batching out-serves batch-1 dispatch, shedding and backpressure
# both activate under overload, the admitted p99 stays bounded, and every
# executed response matches the batch-1 plan exactly. Writes its report
# under _build/ so it never clobbers the committed full-mode
# BENCH_serve.json (refresh that one with
# `./_build/default/bench/main.exe --only serve`).
serve-smoke:
	dune build bench/main.exe
	./_build/default/bench/main.exe --only serve --quick \
	  --out _build/BENCH_serve.smoke.json

# Serving telemetry smoke test. Run 1: a short really-executed serve with
# the full telemetry surface on — lifecycle event log (JSONL), Chrome
# trace with cross-domain flow arcs, Prometheus exposition — and each
# artifact validated by the matching strict checker in `trace-check`
# (lifecycle ordering + terminal-uniqueness for events, flow-id presence
# for the trace, cumulative-bucket consistency for the exposition). Run
# 2: a virtual-time overload (burst + tight deadline) that must write
# exactly one flight-recorder dump, fire a burn-rate alert in the JSON
# summary, and still produce a valid event log and exposition.
OBS_SMOKE := _build/obs-smoke

obs-serve-smoke:
	dune build bin/hidetc.exe
	mkdir -p $(OBS_SMOKE)
	./_build/default/bin/hidetc.exe serve --model tiny_cnn --seed 7 \
	  --duration 1 --rps 80 \
	  --trace $(OBS_SMOKE)/serve.trace.json \
	  --events $(OBS_SMOKE)/serve.events.jsonl \
	  --prom $(OBS_SMOKE)/serve.prom \
	  --out $(OBS_SMOKE)/serve.json > /dev/null
	./_build/default/bin/hidetc.exe trace-check $(OBS_SMOKE)/serve.trace.json
	./_build/default/bin/hidetc.exe trace-check --events \
	  $(OBS_SMOKE)/serve.events.jsonl
	./_build/default/bin/hidetc.exe trace-check --prom $(OBS_SMOKE)/serve.prom
	rm -f $(OBS_SMOKE)/overload.flight.json
	./_build/default/bin/hidetc.exe serve --model tiny_cnn --seed 7 \
	  --virtual --duration 2 --rps 80 --burst 0.5,0.5,600 \
	  --deadline-ms 120 \
	  --events $(OBS_SMOKE)/overload.events.jsonl \
	  --prom $(OBS_SMOKE)/overload.prom \
	  --flight-out $(OBS_SMOKE)/overload.flight.json \
	  --out $(OBS_SMOKE)/overload.json > /dev/null
	./_build/default/bin/hidetc.exe trace-check --events \
	  $(OBS_SMOKE)/overload.events.jsonl
	./_build/default/bin/hidetc.exe trace-check --prom \
	  $(OBS_SMOKE)/overload.prom
	test -f $(OBS_SMOKE)/overload.flight.json
	grep -q '"flight_fired": true' $(OBS_SMOKE)/overload.json
	grep -q '"fired": true' $(OBS_SMOKE)/overload.json

# Sharded-execution smoke test. Step 1: the differential fuzzer's
# (opt-in) sharded path — every random graph/matmul case is partitioned
# for a seed-derived cluster (1-4 devices) under every applicable
# strategy and compared against the single-device CPU reference; shrunk
# repros embed the shard spec (devices, strategy, describe line). Step
# 2: a 2-device tensor-parallel quickstart matmul planned, executed, and
# bit-verified against the single-device baseline (`compile
# --verify-shard` exits non-zero on mismatch). Step 3: the shard bench
# gates — tensor-parallel matmul >= 1.6x at 2 devices, pipeline > 1x on
# the staged DAG, nonzero collective billing, and all four executed
# equivalence points — with the report kept under _build/ so it never
# clobbers the committed BENCH_shard.json (refresh that one with
# `./_build/default/bench/main.exe --only shard --out BENCH_shard.json`).
shard-smoke:
	dune build bin/hidetc.exe bench/main.exe
	./_build/default/bin/hidetc.exe fuzz --paths sharded --seed 42 \
	  --cases 400 --quiet
	./_build/default/bin/hidetc.exe export -m tiny_transformer -b 8 \
	  -o _build/shard-smoke.hgf > /dev/null
	./_build/default/bin/hidetc.exe compile --file _build/shard-smoke.hgf \
	  --devices 2 --parallel tensor --verify-shard > /dev/null
	./_build/default/bench/main.exe --only shard \
	  --out _build/BENCH_shard.smoke.json > /dev/null

# Guided-tuner smoke test: the tune bench in quick mode (the quickstart
# matmul shape only). Its gates require the guided evolutionary search to
# land within 5% of the exhaustive best while measuring at most 25% of
# the widened space, and a widened-space schedule (swizzle / deep
# pipeline) to beat the pre-widening best on a bandwidth-bound GEMM.
# Writes its report under _build/ so it never clobbers the committed
# full-mode BENCH_tune.json (refresh that one with
# `./_build/default/bench/main.exe --only tune`). Then the CLI's compile
# options: a guided, cycle-fidelity compile of a tiny model that writes a
# tuning log and a schedule cache, and the same compile warm-started from
# that log (a different cache key, so it tunes again).
TUNE_SMOKE := _build/tune-smoke

tune-smoke:
	dune build bench/main.exe bin/hidetc.exe
	./_build/default/bench/main.exe --only tune --quick \
	  --out _build/BENCH_tune.smoke.json
	./_build/default/bin/hidetc.exe export -m tiny_separable \
	  -o $(TUNE_SMOKE).hgf > /dev/null
	rm -f $(TUNE_SMOKE).cache
	./_build/default/bin/hidetc.exe compile --file $(TUNE_SMOKE).hgf \
	  --search guided --fidelity cycle --tuning-log $(TUNE_SMOKE).tsv \
	  --cache $(TUNE_SMOKE).cache > /dev/null
	./_build/default/bin/hidetc.exe compile --file $(TUNE_SMOKE).hgf \
	  --search guided --fidelity cycle --search-warm $(TUNE_SMOKE).tsv \
	  --cache $(TUNE_SMOKE).cache > /dev/null

# Cycle-fidelity smoke test: the fidelity bench in quick mode (a strided
# sample of the schedule space on one shape). Its gates require the
# analytic and cycle-approximate rankings to agree ordinally (Spearman
# >= 0.35), the cycle-ranked winner to be at least as good as the
# analytic-ranked winner under the cycle model, and at least one shape
# where the cycle model changes the winner for a reason the analytic
# model cannot see (coalescing, bank conflicts or caches). Writes its
# report under _build/ so it never clobbers the committed full-mode
# BENCH_fidelity.json (refresh that one with
# `./_build/default/bench/main.exe --only fidelity`).
fidelity-smoke:
	dune build bench/main.exe
	./_build/default/bench/main.exe --only fidelity --quick \
	  --out _build/BENCH_fidelity.smoke.json

# The repo benchmark (benchmark/, see BENCHMARK.json), per layer: each
# workload runs traced (`--trace 1`), and its result line goes with the git
# revision into BENCH_compile.json. A failed output check in any workload
# stops the target and leaves the committed file alone. It takes a few
# minutes, so it is not part of `make check`.
BENCH_WORKLOADS := compile_cold compile_warm exec_tiny
BENCH_COMPILE_TMP := _build/bench-compile

bench-compile:
	mkdir -p $(BENCH_COMPILE_TMP)
	for w in $(BENCH_WORKLOADS); do \
	  bash benchmark/run.sh --workload $$w --trace 1 \
	    > $(BENCH_COMPILE_TMP)/$$w.out || exit 1; \
	done
	{ printf '{"revision": "%s",\n "workloads": {' \
	    "$$(git describe --always --dirty)"; \
	  sep=''; \
	  for w in $(BENCH_WORKLOADS); do \
	    printf '%s\n  "%s": %s' "$$sep" $$w \
	      "$$(tail -n 1 $(BENCH_COMPILE_TMP)/$$w.out)"; \
	    sep=','; \
	  done; \
	  printf '}}\n'; } > $(BENCH_COMPILE_TMP)/BENCH_compile.json
	mv $(BENCH_COMPILE_TMP)/BENCH_compile.json BENCH_compile.json

# The full gate: everything (libraries, tests, benches, examples) must
# compile, the test suite must pass, the trace pipeline must produce
# valid output, the differential fuzzer must run clean, the compiled
# simulator backend must beat the legacy interpreter, the native backend
# must hold bit-exact parity and beat the closure backend (or skip
# visibly when no toolchain is present), the serving runtime must batch,
# shed and verify correctly under load, and the serving telemetry
# (events, flows, exposition, flight recorder, burn-rate alerts) must
# validate end to end, sharded multi-device execution must match the
# single-device baseline under each strategy's equivalence contract, and
# the guided tuner must match exhaustive quality within its measurement
# budget, and the cycle-approximate fidelity model must rank-correlate
# with the analytic model while beating it where coalescing, bank
# conflicts or caches matter.
check:
	dune build @all && dune runtest && $(MAKE) trace-smoke && \
	  $(MAKE) fuzz-smoke && $(MAKE) bench-interp-smoke && \
	  $(MAKE) native-smoke && $(MAKE) serve-smoke && \
	  $(MAKE) obs-serve-smoke && $(MAKE) shard-smoke && \
	  $(MAKE) tune-smoke && $(MAKE) fidelity-smoke

clean:
	dune clean
