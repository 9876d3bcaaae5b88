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
	bench-experiments experiments

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
# unmistakably a parallelism bug (the file also runs as part of
# `test`; see docs/performance.md).
parallel-determinism:
	$(PYTHON) -m pytest -x -q tests/experiments/test_parallel_determinism.py

# Byte-identity across *shard* counts: the sharded engine's
# determinism contract says every artifact is a pure function of
# (scenario, seed), never of shard count, shard model or placement.
# Table 2 and Table 1 are compared across {1,2,4} shards under both
# the `site` and `host` shard models (host unlocks shard counts above
# the site count: one group per sample world), table2's trace and
# flight record across {1,2} shards, and the fleet scenario (the
# message-coupled multi-site world, including its merged flight
# record) across {1,4}.  The fleet flight file reuses one path so the
# printed output is comparable too.
shard-determinism:
	$(PYTHON) -m repro table2 --seed 42 --shards 1 > .shard-det-t2-1.txt
	$(PYTHON) -m repro table2 --seed 42 --shards 2 > .shard-det-t2-2.txt
	$(PYTHON) -m repro table2 --seed 42 --shards 4 > .shard-det-t2-4.txt
	$(PYTHON) -m repro table2 --seed 42 --shards 4 --shard-model host \
	    > .shard-det-t2-4h.txt
	cmp .shard-det-t2-1.txt .shard-det-t2-2.txt
	cmp .shard-det-t2-1.txt .shard-det-t2-4.txt
	cmp .shard-det-t2-1.txt .shard-det-t2-4h.txt
	$(PYTHON) -m repro table1 --seed 42 --shards 1 > .shard-det-t1-1.txt
	$(PYTHON) -m repro table1 --seed 42 --shards 4 > .shard-det-t1-4.txt
	$(PYTHON) -m repro table1 --seed 42 --shards 4 --shard-model host \
	    > .shard-det-t1-4h.txt
	cmp .shard-det-t1-1.txt .shard-det-t1-4.txt
	cmp .shard-det-t1-1.txt .shard-det-t1-4h.txt
	$(PYTHON) -m repro trace table2 --seed 42 --shards 1 \
	    --out .shard-det-trace-1.json
	$(PYTHON) -m repro trace table2 --seed 42 --shards 2 \
	    --out .shard-det-trace-2.json
	cmp .shard-det-trace-1.json .shard-det-trace-2.json
	$(PYTHON) -m repro record table2 --seed 42 --shards 1 \
	    --out .shard-det-rec-1.jsonl
	$(PYTHON) -m repro record table2 --seed 42 --shards 2 \
	    --out .shard-det-rec-2.jsonl
	cmp .shard-det-rec-1.jsonl .shard-det-rec-2.jsonl
	$(PYTHON) -m repro fleet --seed 42 --shards 1 \
	    --out .shard-det-flight.jsonl > .shard-det-fleet-1.txt
	mv .shard-det-flight.jsonl .shard-det-flight-1.jsonl
	$(PYTHON) -m repro fleet --seed 42 --shards 4 \
	    --out .shard-det-flight.jsonl > .shard-det-fleet-4.txt
	cmp .shard-det-fleet-1.txt .shard-det-fleet-4.txt
	cmp .shard-det-flight-1.jsonl .shard-det-flight.jsonl
	rm -f .shard-det-t2-*.txt .shard-det-t1-*.txt \
	    .shard-det-trace-*.json .shard-det-rec-*.jsonl \
	    .shard-det-fleet-*.txt .shard-det-flight*.jsonl

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

# Model-layer fast paths must be invisible: regenerate Table 2, Table 1
# and the fleet run at seed 42 and byte-compare each against its
# committed golden (each recorded before the fast paths that touch it
# landed — see docs/performance.md).
golden-guard:
	$(PYTHON) -m repro table2 --seed 42 > .golden-guard-table2.txt
	cmp benchmarks/goldens/table2-seed42.txt .golden-guard-table2.txt
	$(PYTHON) -m repro table1 --seed 42 > .golden-guard-table1.txt
	cmp benchmarks/goldens/table1-seed42.txt .golden-guard-table1.txt
	$(PYTHON) -m repro fleet --seed 42 > .golden-guard-fleet.txt
	cmp benchmarks/goldens/fleet-seed42.txt .golden-guard-fleet.txt
	rm -f .golden-guard-table2.txt .golden-guard-table1.txt \
	    .golden-guard-fleet.txt

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

experiments:
	$(PYTHON) -m repro all
