# Reproduction workflow shortcuts.

PYTHON ?= python

.PHONY: install test bench bench-smoke experiments ablations scorecard \
	paper-scale examples profile-baseline clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
	$(PYTHON) benchmarks/baseline.py --out BENCH_joins.json \
		--check benchmarks/BENCH_seed.json --counters-only \
		--history BENCH_history.jsonl

# The benchmark of record (bench/, BENCHMARK.json) at 1/20 size: its own
# test, then the smoke run's result document on standard output.
bench-smoke:
	$(PYTHON) -m pytest bench/test_smoke.py -q
	python3 bench/run.py --smoke

# Regenerate the checked-in sampling-profiler baseline from the
# canonical bench suite.  Refresh it (and eyeball the diff) whenever a
# change is expected to move the hot-path ranking — new phases, engine
# rewrites, storage-layer changes — so later "did the profile shift?"
# comparisons start from the current code, not an ancestor's.
profile-baseline:
	mkdir -p results
	$(PYTHON) benchmarks/baseline.py --out results/profile_run.json \
		--profile results/profile_baseline.txt

experiments:
	$(PYTHON) -m repro.experiments --all --out results/

# Regenerate the committed ablation artifacts: the per-question
# experiment tables (results/ablation-*.tsv/.txt — seeded, so their
# deterministic columns reproduce bit-identically) and the declarative
# harness's importance report (results/ablation_importance.tsv/.jsonl;
# checked against itself so regeneration also proves the tripwire
# passes).  Wall-time columns vary per machine; x/y/pages do not.
ablations:
	mkdir -p results
	for id in ablation-alternation ablation-buffer ablation-firing \
		ablation-hash-family ablation-hybrid ablation-modulo \
		ablation-options ablation-portions ablation-skew; do \
		$(PYTHON) -m repro.experiments $$id --out results/ || exit 1; \
	done
	$(PYTHON) -m repro.cli ablate --scale 0.5 --out results/ \
		--history BENCH_history.jsonl

scorecard:
	$(PYTHON) -m repro.experiments scorecard

# Paper-scale runs are guarded behind SETJOINS_PAPER_SCALE so CI (which
# never sets it) stays at toy scale.  The final step records how far the
# paper's published c1/c2/c3 constants drift on this machine at the
# paper's |R|=|S|=10000 operating point: it EXPLAIN-ANALYZEs the join,
# appends the drift record to results/paper_drift.jsonl, and lets the
# recalibrator refit into results/paper_models.json once enough history
# accumulates.
paper-scale:
	SETJOINS_PAPER_SCALE=1 $(PYTHON) -m pytest tests/test_paper_scale.py -s
	$(PYTHON) -m repro.experiments fig8 --scale 1.0
	$(PYTHON) -m repro.experiments fig9 --scale 1.0
	mkdir -p results
	SETJOINS_PAPER_SCALE=1 $(PYTHON) -m repro.cli generate \
		results/paper_r.txt --size 10000 --theta 6 --domain 10000 --seed 8
	SETJOINS_PAPER_SCALE=1 $(PYTHON) -m repro.cli generate \
		results/paper_s.txt --size 10000 --theta 12 --domain 10000 --seed 9
	SETJOINS_PAPER_SCALE=1 $(PYTHON) -m repro.cli join \
		results/paper_r.txt results/paper_s.txt --analyze \
		--drift results/paper_drift.jsonl --recalibrate \
		--model-store results/paper_models.json

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script || exit 1; \
	done

# Removes only what .gitignore lists: results/ (committed tables, the
# profile baseline, the ablation report) and BENCH_history.jsonl are tracked.
clean:
	rm -rf results/profile_run.json BENCH_joins.json bench/out/ build/ \
		*.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
