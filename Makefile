# Development entry points.  `make check` is the CI gate: one simlint
# invocation over src/ (`analysis-gate`: the per-file rules, the
# `--deep` interprocedural pass, the shardcheck shard-affinity pass,
# rules R15-R19, regenerating docs/shard-safety.md, and the scalecheck
# growth-dimension pass, rules R22-R26, regenerating
# docs/scale-readiness.md — all ratcheted against
# analysis-baseline.json so only NEW findings fail), the tier-1
# test suite (which includes the workers=1 vs workers=N
# parallel-determinism tests), the simsan runtime determinism
# sanitizer over a reduced-scale scenario — plain and under the
# shard-affinity model — and the observability smoke tests (trace and
# flight-record determinism + tracer/recorder overhead guards).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check analysis-gate lint shardcheck scalecheck baseline test \
	parallel-determinism shard-determinism adaptive-guard sanitize \
	sanitize-shard trace-smoke record-smoke golden-guard bench \
	bench-experiments bench-pairs experiments

check: analysis-gate test parallel-determinism \
	shard-determinism adaptive-guard sanitize sanitize-shard \
	trace-smoke record-smoke golden-guard

# Every analysis pass in one process, so each file is parsed once:
# the same findings, exit status and inventories as `lint`,
# `shardcheck` and `scalecheck` run one by one (those stay for
# single-pass use).
analysis-gate:
	$(PYTHON) -m repro.analysis --deep --shard --scale src/repro \
	    --baseline analysis-baseline.json \
	    --shard-inventory docs/shard-safety.md \
	    --scale-inventory docs/scale-readiness.md

lint:
	$(PYTHON) -m repro.analysis --deep src/repro \
	    --baseline analysis-baseline.json

# The shard-affinity pass (rules R15-R19) over the model tree, under
# the same ratchet, regenerating the docs/shard-safety.md inventory —
# the work-list for the sharded parallel engine (ROADMAP item 1).
shardcheck:
	$(PYTHON) -m repro.analysis --shard src/repro \
	    --baseline analysis-baseline.json \
	    --shard-inventory docs/shard-safety.md

# The growth-dimension pass (rules R22-R26) over the model tree,
# under the same ratchet, regenerating the docs/scale-readiness.md
# inventory — the work-list for the brokered task-queue layer
# (ROADMAP item 2).
scalecheck:
	$(PYTHON) -m repro.analysis --scale src/repro \
	    --baseline analysis-baseline.json \
	    --scale-inventory docs/scale-readiness.md

# Regenerate the findings baseline after paying down debt (the ratchet
# only ever tightens: run this when `lint` reports stale entries, not
# to absorb new findings).
baseline:
	$(PYTHON) -m repro.analysis --deep src/repro \
	    --write-baseline analysis-baseline.json

test:
	$(PYTHON) -m pytest -x -q

# Byte-identity across worker counts, run standalone so a failure is
# unmistakably a parallelism bug (the pytest file also runs as part of
# `test`; see docs/performance.md).  Table 1 and Table 2 at seed 42
# with two replication workers must also match their committed goldens
# byte for byte.
parallel-determinism:
	$(PYTHON) -m pytest -x -q tests/experiments/test_parallel_determinism.py
	$(PYTHON) -m repro table1 --seed 42 --workers 2 > .par-det-table1.txt
	cmp benchmarks/goldens/table1-seed42.txt .par-det-table1.txt
	$(PYTHON) -m repro table2 --seed 42 --workers 2 > .par-det-table2.txt
	cmp benchmarks/goldens/table2-seed42.txt .par-det-table2.txt
	rm -f .par-det-table1.txt .par-det-table2.txt

# Byte-identity across *shard* counts: the sharded engine's
# determinism contract says every artifact is a pure function of
# (scenario, seed), never of shard count or placement.  The fleet
# scenario (the message-coupled multi-site world, including its merged
# flight record) is compared across {1,4} shards.  The flight file
# reuses one path so the printed output is comparable too.
shard-determinism:
	$(PYTHON) -m repro fleet --seed 42 --shards 1 \
	    --out .shard-det-flight.jsonl > .shard-det-fleet-1.txt
	mv .shard-det-flight.jsonl .shard-det-flight-1.jsonl
	$(PYTHON) -m repro fleet --seed 42 --shards 4 \
	    --out .shard-det-flight.jsonl > .shard-det-fleet-4.txt
	cmp .shard-det-fleet-1.txt .shard-det-fleet-4.txt
	cmp .shard-det-flight-1.jsonl .shard-det-flight.jsonl
	rm -f .shard-det-fleet-*.txt .shard-det-flight*.jsonl

# Adaptive conservative windows must never cost barrier rounds versus
# the fixed-lookahead schedule, and every artifact except the reported
# round count must be byte-identical (window *sizes* change, delivered
# message stamps do not).  The full numbers live in BENCH_sharded.json
# (`make bench`); this is the fast regression gate.
adaptive-guard:
	$(PYTHON) -m pytest -x -q tests/experiments/test_fleet.py -k adaptive

# Replay the reduced-scale table2 scenario at seed 42 under simsan:
# zero hazards required, and the sanitized run's output must match an
# untraced run byte for byte (the sanitizer is a pure observer).
sanitize:
	$(PYTHON) -m repro sanitize table2 --seed 42

# The same replay under the shard-affinity sanitizer: partition by
# site, require zero shard violations and byte-identical output (the
# crossings count is informational; see docs/shard-safety.md).
sanitize-shard:
	$(PYTHON) -m repro sanitize table2 --seed 42 --shard-model site

# Trace the table2 scenario twice at the same seed: the exported
# Chrome-trace JSON must be byte-identical, and the null tracer must
# not tax the kernel hot path (tests/obs holds the pytest versions).
trace-smoke:
	$(PYTHON) -m repro trace table2 --seed 42 --out .trace-smoke-a.json
	$(PYTHON) -m repro trace table2 --seed 42 --out .trace-smoke-b.json
	cmp .trace-smoke-a.json .trace-smoke-b.json
	rm -f .trace-smoke-a.json .trace-smoke-b.json
	$(PYTHON) -m pytest -x -q tests/obs/test_overhead_guard.py \
	    tests/obs/test_trace_determinism.py

# Record the table2 scenario's flight data twice at the same seed:
# the exported JSONL heartbeat log must be byte-identical, and the
# recorder must not perturb the run or tax it (tests/obs and
# benchmarks/test_recorder_overhead.py hold the pytest versions).
record-smoke:
	$(PYTHON) -m repro record table2 --seed 42 --out .record-smoke-a.jsonl
	$(PYTHON) -m repro record table2 --seed 42 --out .record-smoke-b.jsonl
	cmp .record-smoke-a.jsonl .record-smoke-b.jsonl
	rm -f .record-smoke-a.jsonl .record-smoke-b.jsonl
	$(PYTHON) -m pytest -x -q tests/obs/test_recorder.py

# Model-layer fast paths must be invisible: regenerate Table 2, Table 1,
# Figure 1 (default samples), the ablations, the migration run and the
# fleet run at seed 42 and byte-compare each against its committed
# golden (each recorded before the fast paths that touch it landed —
# see docs/performance.md).  The table2 flight record pins the kernel
# event sequence on the VM path (per-beat event counts), as the fleet
# golden's `events` line does for the sharded world; the three
# life-cycle Chrome traces pin the single-session worlds of
# src/repro/scenarios.py span by span.
golden-guard:
	$(PYTHON) -m repro table2 --seed 42 > .golden-guard-table2.txt
	cmp benchmarks/goldens/table2-seed42.txt .golden-guard-table2.txt
	$(PYTHON) -m repro table1 --seed 42 > .golden-guard-table1.txt
	cmp benchmarks/goldens/table1-seed42.txt .golden-guard-table1.txt
	$(PYTHON) -m repro figure1 --seed 42 > .golden-guard-figure1.txt
	cmp benchmarks/goldens/figure1-seed42.txt .golden-guard-figure1.txt
	$(PYTHON) -m repro ablations --seed 42 > .golden-guard-ablations.txt
	cmp benchmarks/goldens/ablations-seed42.txt .golden-guard-ablations.txt
	$(PYTHON) -m repro migration --seed 42 > .golden-guard-migration.txt
	cmp benchmarks/goldens/migration-seed42.txt .golden-guard-migration.txt
	$(PYTHON) -m repro record table2 --seed 42 \
	    --out .golden-guard-table2-record.jsonl > /dev/null
	cmp benchmarks/goldens/table2-record-seed42.jsonl \
	    .golden-guard-table2-record.jsonl
	$(PYTHON) -m repro fleet --seed 42 > .golden-guard-fleet.txt
	cmp benchmarks/goldens/fleet-seed42.txt .golden-guard-fleet.txt
	for world in table1 table2 figure1; do \
	    $(PYTHON) -m repro trace $$world --seed 42 \
	        --out .golden-guard-$$world-trace.json > /dev/null && \
	    cmp benchmarks/goldens/$$world-trace-seed42.json \
	        .golden-guard-$$world-trace.json || exit 1; \
	done
	rm -f .golden-guard-table2.txt .golden-guard-table1.txt \
	    .golden-guard-figure1.txt .golden-guard-ablations.txt \
	    .golden-guard-migration.txt .golden-guard-table2-record.jsonl \
	    .golden-guard-fleet.txt .golden-guard-*-trace.json

# Kernel throughput microbenchmark: regenerates BENCH_kernel.json at
# the repo root (events/sec for the hot-path workloads, pre-PR
# baseline, and the speedup ratio — see docs/performance.md).
bench: bench-experiments
	$(PYTHON) -m pytest -x -q benchmarks/test_kernel_throughput.py
	$(PYTHON) -m pytest -x -q benchmarks/test_sharded_throughput.py

# End-to-end experiment benchmark: wall-clock of figure1/table2 at
# samples=1000 plus the staging ablation and scenario events/sec;
# regenerates BENCH_experiments.json at the repo root.  The table2 run
# alone takes minutes — this is a deliberate full-scale measurement.
bench-experiments:
	$(PYTHON) -m pytest -x -q benchmarks/test_experiment_throughput.py

# Alternating perfbench pairs, the working tree against the commit it
# sits on: `make bench-pairs W=vm_startup N=6` prints wall_s, setup_s,
# peak_rss_mb and correctness per pair, the medians and the win count.
W ?= vm_startup
N ?= 6
bench-pairs:
	$(PYTHON) benchmarks/pairs.py --workload $(W) --pairs $(N)

experiments:
	$(PYTHON) -m repro all
