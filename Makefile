# Convenience targets; CI and the tier-1 gate run `make check`.

.PHONY: all test check trace-smoke fuzz-smoke bench-smoke obs-serve-smoke shard-smoke tune-smoke bench-compile clean

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
# fuzzer on every path (reference vs rule-based, template, fused,
# baseline and sharded lowerings; compiled vs legacy and native vs closure
# backends bit for bit, native skipping visibly without a toolchain). Any
# failure prints a shrunk, re-runnable repro. A case depends only on the
# seed and its index, so one run makes the same checks per path as one
# run per path. See EXPERIMENTS.md.
fuzz-smoke:
	dune build bin/hidetc.exe
	./_build/default/bin/hidetc.exe fuzz --seed 42 --cases 400 --quiet \
	  --paths rule,template,fused,baseline,compiled,native,sharded

# Reported-experiment smoke test: the five gated bench experiments
# (simulator backends, serving, sharding, guided tuning, cycle fidelity;
# gates in bench/reported.ml) in quick mode. Each writes BENCH_<name>.json
# under $(BENCH_SMOKE), never over a committed full-mode report (refresh
# one with `./_build/default/bench/main.exe --only <name>`); the bench
# exits non-zero if any gate fails. Without ocamlfind/ocamlopt the interp
# native column is skipped with a note.
BENCH_SMOKE := _build/bench-smoke

bench-smoke:
	dune build bench/main.exe
	rm -rf $(BENCH_SMOKE)
	mkdir -p $(BENCH_SMOKE)
	./_build/default/bench/main.exe --quick \
	  --only interp,serve,shard,tune,fidelity --out $(BENCH_SMOKE)
	for e in interp serve shard tune fidelity; do \
	  test -f $(BENCH_SMOKE)/BENCH_$$e.json || exit 1; \
	done

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
	grep -q '"flight_fired":true' $(OBS_SMOKE)/overload.json
	grep -q '"fired":true' $(OBS_SMOKE)/overload.json

# Sharded-execution smoke test: a 2-device tensor-parallel tiny
# transformer planned, executed, and bit-verified against the
# single-device baseline (`compile --verify-shard` exits non-zero on
# mismatch). The sharded fuzz path runs in fuzz-smoke, the shard bench
# gates in bench-smoke.
shard-smoke:
	dune build bin/hidetc.exe
	./_build/default/bin/hidetc.exe export -m tiny_transformer -b 8 \
	  -o _build/shard-smoke.hgf > /dev/null
	./_build/default/bin/hidetc.exe compile --file _build/shard-smoke.hgf \
	  --devices 2 --parallel tensor --verify-shard > /dev/null

# Guided-tuner CLI smoke test: a guided, cycle-fidelity compile of a tiny
# model that writes a tuning log and a schedule cache, then the same
# compile again, which must be served entirely from the saved cache (zero
# fresh tuning seconds), so guided and cycle keys persist across
# processes. The tune bench gates run in bench-smoke.
TUNE_SMOKE := _build/tune-smoke

tune-smoke:
	dune build bin/hidetc.exe
	./_build/default/bin/hidetc.exe export -m tiny_separable \
	  -o $(TUNE_SMOKE).hgf > /dev/null
	rm -f $(TUNE_SMOKE).cache
	./_build/default/bin/hidetc.exe compile --file $(TUNE_SMOKE).hgf \
	  --search guided --fidelity cycle --tuning-log $(TUNE_SMOKE).tsv \
	  --cache $(TUNE_SMOKE).cache > /dev/null
	./_build/default/bin/hidetc.exe compile --file $(TUNE_SMOKE).hgf \
	  --search guided --fidelity cycle --cache $(TUNE_SMOKE).cache \
	  > $(TUNE_SMOKE).out
	grep -q 'tuning cost:  0 simulated seconds (0.00 h), fresh' \
	  $(TUNE_SMOKE).out

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
# compile; the test suite must pass, including the committed BENCH_*.json
# reports against their own gates; the trace pipeline must produce valid
# output; the differential fuzzer must run clean on every path; the five
# reported bench experiments must pass their gates in quick mode, each
# report in its own file; the serving telemetry (events, flows,
# exposition, flight recorder, burn-rate alerts) must validate end to
# end; a sharded compile must match the single-device baseline; and a
# guided, cycle-fidelity CLI compile must be served from its saved cache.
check:
	dune build @all && dune runtest && $(MAKE) trace-smoke && \
	  $(MAKE) fuzz-smoke && $(MAKE) bench-smoke && \
	  $(MAKE) obs-serve-smoke && $(MAKE) shard-smoke && \
	  $(MAKE) tune-smoke

clean:
	dune clean
