# Local gates, matching what CI runs (.github/workflows/ci.yml).
#
#   make test             - the tier-1 suite (see ROADMAP.md)
#   make bench-smoke      - benchmark files with timing disabled (fast sanity)
#   make bench-ledger-smoke - one short untraced repeat set of all five of
#                           the perf ledger's workloads: flood, deep_rounds,
#                           short_runs, wide_n (the only digest over
#                           n >= 192, on two workers) and steal_e2e (the
#                           only one through the e9 CLI, leases and merge);
#                           exits nonzero when the simulated statistics no
#                           longer match bench/expected.json ("correct": false)
#   make bench            - full benchmark run with timings (strict: no
#                           timing-gate reruns), then a trajectory measurement
#                           written to the next free BENCH_<n>.json
#                           (BENCH_ARGS forwards extra bench_trajectory.py
#                           flags, e.g. --out/--compare/--fail-on-regression)
#   make bench-trajectory - re-measure and diff events/sec against the
#                           previous BENCH_*.json (warn-only by default;
#                           the nightly CI lane adds --fail-on-regression 25)
#   make coverage         - tier-1 suite under pytest-cov with the measured
#                           line-coverage floor (skips with a notice when
#                           pytest-cov is absent; the CI coverage job runs it)
#   make lint             - ruff check; where ruff is absent, the unused-import
#                           check of scripts/check_unused_imports.py instead
#   make examples-smoke   - run every example in examples/README.md's table
#                           and a fit-delays CLI round trip
#   make search-smoke     - bounded schedule search over every algorithm
#                           (exits nonzero with a replay token on violation)
#   make serve-smoke      - end-to-end smoke of the live sweep service:
#                           kill a worker mid-sweep, drive every serve
#                           endpoint over HTTP, finish, verify bit-identity
#   make linkcheck        - verify relative links in README.md / docs / READMEs
#                           and the *.md files that src/ docstrings name

PYTHON ?= python
# Every entry point (pytest, scripts, examples) runs through PY_RUN so local
# and CI invocations resolve the same src/ tree ahead of any installed copy.
PY_RUN = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON)
# Extra flags for scripts/bench_trajectory.py in `make bench`/`bench-trajectory`.
BENCH_ARGS ?=
# Line-coverage floor for `make coverage` (line coverage measured at 93%
# when the gate was added; the floor sits below that to absorb drift, and
# was raised to 89 with the empirical-delay/e11 suite).
COV_FLOOR ?= 89

.PHONY: test bench-smoke bench-ledger-smoke bench bench-trajectory coverage lint examples-smoke search-smoke serve-smoke linkcheck
# Knobs for `make search-smoke` (see docs/adversary.md).
SEARCH_BUDGET ?= 200
SEARCH_TIME ?= 60

test:
	$(PY_RUN) -m pytest -x -q

bench-smoke:
	$(PY_RUN) -m pytest benchmarks -q --benchmark-disable

# The ledger driver imports nothing of the program and sets up its children's
# sys.path itself, hence no PY_RUN.
bench-ledger-smoke:
	$(PYTHON) bench/run.py --workload flood --seconds 1 --trace 0
	$(PYTHON) bench/run.py --workload deep_rounds --seconds 1 --trace 0
	$(PYTHON) bench/run.py --workload short_runs --seconds 1 --trace 0
	$(PYTHON) bench/run.py --workload wide_n --seconds 1 --trace 0
	$(PYTHON) bench/run.py --workload steal_e2e --seconds 1 --trace 0

bench:
	REPRO_BENCH_STRICT=1 $(PY_RUN) -m pytest benchmarks -q --benchmark-only
	$(PY_RUN) scripts/bench_trajectory.py $(BENCH_ARGS)

bench-trajectory:
	$(PY_RUN) scripts/bench_trajectory.py --compare $(BENCH_ARGS)

coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PY_RUN) -m pytest -q --cov=repro --cov-report=term-missing:skip-covered \
			--cov-report=html --cov-fail-under=$(COV_FLOOR); \
	else \
		echo "pytest-cov is not installed; skipping coverage (the CI coverage job runs it)"; \
	fi

lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check .; \
	elif command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "ruff is not installed; checking unused imports only (the CI lint job runs ruff)"; \
		$(PYTHON) scripts/check_unused_imports.py; \
	fi

examples-smoke:
	$(PY_RUN) examples/quickstart.py
	$(PY_RUN) examples/majority_crash_survival.py
	$(PY_RUN) examples/cluster_layout_tradeoffs.py
	$(PY_RUN) examples/hybrid_vs_mm.py
	$(PY_RUN) examples/adversary_tour.py
	$(PY_RUN) examples/sharded_sweep.py
	$(PY_RUN) examples/work_stealing.py
	$(PY_RUN) -m repro fit-delays tests/data/rtt_sample.csv --model empirical --unit-mean
	$(PY_RUN) examples/empirical_resilience.py

search-smoke:
	$(PY_RUN) -m repro search --algorithm all --budget $(SEARCH_BUDGET) --time-budget $(SEARCH_TIME)

serve-smoke:
	$(PY_RUN) scripts/serve_smoke.py

linkcheck:
	$(PY_RUN) scripts/check_markdown_links.py
