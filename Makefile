# Developer entry points for the MemPool reproduction.
#
#   make test       unit/integration tests (tier-1 verify)
#   make ci         the full CI gate: tests + docs-lint + enforced bench report
#   make coverage   tier-1 suite under pytest-cov with an enforced threshold
#   make bench      benchmark harness (regenerates every figure/table)
#   make bench-engine  engine + workload + topology benchmarks + enforced report
#   make distributed-smoke  distributed executor vs serial: identity + crash recovery
#   make service-smoke  HTTP sweep service end to end: submit/stream/fetch vs direct run
#   make fuzz       bounded differential fuzz of the two engines
#   make validate   statistical golden-band validation (repro.validation)
#   make validate-update  re-measure and re-commit the golden bands
#   make lint       ruff (pyproject.toml config) when available, else docs-lint
#   make docs-lint  docstring lint over the public API
#   make figures    regenerate all paper figures through the sweep engine
#   make clean-cache  drop the on-disk experiment result cache

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
WORKERS ?= 1
# Sampled configurations per differential-fuzz property (`make fuzz`):
# 25 keeps the smoke run to seconds; CI's nightly job raises it to dig.
FUZZ_BUDGET ?= 25
# Enforced line-coverage floor of `make coverage` (the CI coverage job):
# the tier-1 suite measured ~95% line coverage of src/repro when the gate
# was introduced; the floor sits a few points below so platform- and
# version-dependent branches don't flake the job, while a real coverage
# slide still fails it.  Raise it as coverage grows, never lower it to
# make a failing build pass.
COV_MIN ?= 92

.PHONY: test ci coverage bench bench-engine distributed-smoke service-smoke \
	fuzz validate validate-update lint docs-lint figures clean-cache

# The trailing bench report is informational in the test flow: it runs
# whether or not pytest passed, but the target's exit status is always
# pytest's, so a test failure can never be masked by the report (and a
# perf regression alone never fails the tier-1 gate — the enforcing runs
# are `make bench-engine` and `make ci`).
test:
	@$(PYTHON) -m pytest -x -q tests; status=$$?; \
	$(PYTHON) tools/bench_report.py || true; \
	exit $$status

# One entry point shared by .github/workflows/ci.yml and local runs: the
# tier-1 suite, the docstring lint and the *enforced* benchmark report —
# no `-` suppression anywhere, every step's failure fails the target.
ci:
	$(PYTHON) -m pytest -x -q tests
	$(MAKE) docs-lint
	$(PYTHON) tools/bench_report.py

# Enforced coverage run (the CI coverage job): fails below COV_MIN and
# always leaves coverage.xml for the artifact upload.  Requires
# pytest-cov; the guard gives offline machines an actionable error
# instead of pytest's unknown-option stack trace.
coverage:
	@$(PYTHON) -c "import pytest_cov" >/dev/null 2>&1 || { \
		echo "make coverage requires pytest-cov (pip install pytest-cov)"; \
		exit 1; \
	}
	$(PYTHON) -m pytest -q tests --cov=repro --cov-report=term \
		--cov-report=xml:coverage.xml --cov-fail-under=$(COV_MIN)

bench:
	$(PYTHON) -m pytest -q benchmarks

# Snapshots go to BENCH_OUT_DIR, the gitignored benchmarks/_out/ when unset;
# refresh the committed ones deliberately: BENCH_OUT_DIR=benchmarks make bench-engine
bench-engine:
	$(PYTHON) -m pytest -q benchmarks/test_perf_engine.py \
		benchmarks/test_perf_workloads.py benchmarks/test_perf_topologies.py \
		benchmarks/test_perf_distributed.py
	$(PYTHON) tools/bench_report.py

# Distributed execution smoke: the work-stealing executor over local
# forked workers AND loopback TCP workers must produce byte-identical
# results (same cache keys, same pickled values) to a serial run, and a
# SIGKILLed worker's shard must requeue without losing a point; then the
# 4-vs-1 local-worker scaling benchmark with the cpu-aware report gate.
distributed-smoke:
	$(PYTHON) -m pytest -x -q tests/test_distributed.py
	$(PYTHON) -m pytest -q benchmarks/test_perf_distributed.py
	$(PYTHON) tools/bench_report.py

# Sweep-service smoke: the job-layer unit tests, then the end-to-end HTTP
# path — boot `serve` on an ephemeral port, submit the fig5 smoke sweep,
# stream its NDJSON events to completion, byte-compare every
# /results/{key} pickle against a direct Executor run, and prove an
# identical resubmission is served from the cache with zero recomputes.
service-smoke:
	$(PYTHON) -m pytest -x -q tests/test_service.py
	$(PYTHON) tools/service_smoke.py

# Property-based differential fuzzing: FUZZ_BUDGET configurations sampled
# from the registries' whole space, each run on both engines and
# compared flit for flit.  Failures shrink and print a one-line
# `python -m repro.validation --replay '<spec>'` reproducer.
fuzz:
	FUZZ_BUDGET=$(FUZZ_BUDGET) $(PYTHON) -m pytest -x -q \
		tests/test_fuzz_differential.py

# Severity-banded statistical validation against the committed goldens
# (benchmarks/GOLDEN_validation.json); exits 1 on a reject-band deviation
# and writes benchmarks/VALIDATION_report.json for the CI artifact.
validate:
	$(PYTHON) -m repro.experiments validate

validate-update:
	$(PYTHON) -m repro.experiments validate --update

# Full ruff lint (E/F + the D1 docstring rules, configured in
# pyproject.toml); falls back to the docstring subset on machines
# without ruff.
lint:
	@if $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "ruff not installed; running docs-lint fallback"; \
		$(MAKE) docs-lint; \
	fi

# Prefer ruff's pydocstyle (D) rules or pydocstyle itself when available;
# fall back to the bundled AST checker (same missing-docstring subset) on
# offline machines that have neither.  Either way the generated catalogue
# tables of README.md / docs/architecture.md are checked against the live
# registries (`tools/docs_lint.py --tables --write` regenerates them).
docs-lint:
	@$(PYTHON) tools/docs_lint.py --tables
	@if $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check --select D100,D101,D102,D103,D104 \
			src/repro/experiments src/repro/evaluation \
			src/repro/engine src/repro/workloads src/repro/topologies \
			src/repro/validation src/repro/service tools; \
	elif $(PYTHON) -c "import pydocstyle" >/dev/null 2>&1; then \
		$(PYTHON) -m pydocstyle --select D100,D101,D102,D103,D104 \
			src/repro/experiments src/repro/evaluation src/repro/engine \
			src/repro/workloads src/repro/topologies \
			src/repro/validation src/repro/service tools; \
	else \
		$(PYTHON) tools/docs_lint.py src/repro/experiments src/repro/evaluation \
			src/repro/traffic src/repro/kernels src/repro/engine \
			src/repro/workloads src/repro/topologies \
			src/repro/validation src/repro/service tools; \
	fi

figures:
	$(PYTHON) -m repro.experiments run --workers $(WORKERS)

clean-cache:
	$(PYTHON) -m repro.experiments clean
