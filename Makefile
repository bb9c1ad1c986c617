# Developer entry points.  `test` wraps the tier-1 verification command used
# by CI and the roadmap; `test-fast` is the inner-loop subset (unit tests
# only: no scenario_smoke cells, no benchmarks -- run `test-cov` alongside it
# when touching the experiments run store); `test-cov` enforces a >=80%
# line-coverage floor on src/repro/experiments via tools/check_coverage.py
# (pytest-cov when installed, a stdlib settrace collector otherwise), with
# the shard/merge packs in its test list so the coverage floor spans the
# sharded-run code too, and enforces the same floor on src/repro/scenarios
# via the matrix executor, shard and resume packs, on src/repro/telemetry
# and src/repro/jobs via their test packs, on src/repro/rl via the PPO,
# DDPG, policy and component packs (the closed-form policy, critic and actor
# gradients included), on src/repro/attacks/fgsm.py via the attack pack (the
# FGSM input gradient), on
# src/repro/core via the core packs plus the training-determinism pack
# (the kappa_D worker pool and its failure paths included), and on
# src/repro/verification via the verification packs
# (test_verification_batch.py holds the comparisons against the frozen
# reference in tests/verification_reference.py) plus the kernel
# differential pack;
# `shard-smoke` runs a real 2-shard matrix against one run directory,
# merges it back end-to-end, and `cmp`s the merged CSV with the same matrix
# run unsharded on a 2-worker pool (`--jobs 2`), once with a run directory and
# once without (one CSV schema); `watch-smoke` runs two telemetry-emitting
# shards, then exercises `runs watch --once` and `runs stats` against the
# shared event log; `serve-smoke` starts the job daemon, submits a matrix
# over HTTP with `repro submit --wait`, lists the jobs, watches the run,
# and shuts the daemon down;
# `scenario-smoke` runs the fast train->evaluate->verify cell for every
# registered scenario (also collected by `test` via the scenario_smoke
# pytest marker); `bench` regenerates the paper's tables/figures at the
# quick scale; `train-bench` re-times the scalar-vs-vectorized
# training stages and refreshes the committed CSV; `perf-train SEED=N` runs the
# repo benchmark's `train` workload with the per-layer trace on (optimizer
# step, distillation, PPO collect and update); `perf-matrix SEED=N`
# runs its `matrix` workload with the trace on (expert batch_controls, FGSM,
# evaluation, run store, shards and merge); `perf-verify SEED=N` runs its
# `verify` workload with the trace on (partition, Bernstein coefficients,
# IBP, reach steps, invariant set); `lint` is a fast
# syntax gate (no third-party linter is vendored into the image).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-fast test-cov shard-smoke watch-smoke serve-smoke scenario-smoke bench train-bench perf-train perf-verify perf-matrix lint

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q -m "not scenario_smoke" tests

test-cov:
	$(PYTHON) tools/check_coverage.py --floor 80
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/scenarios \
		tests/test_matrix_executor.py tests/test_matrix_shard.py \
		tests/test_matrix_shard_faults.py tests/test_shard_properties.py \
		tests/test_matrix_resume.py tests/test_scenario_matrix.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/telemetry \
		tests/test_telemetry_events.py tests/test_telemetry_emitter.py \
		tests/test_telemetry_aggregate.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/jobs \
		tests/test_jobs_messages.py tests/test_jobs_runner.py \
		tests/test_service_dedupe.py tests/test_service_faults.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/verification \
		tests/test_verification_batch.py tests/test_verification_partition.py \
		tests/test_verification_reachability.py tests/test_verification_bernstein.py \
		tests/test_verification_intervals.py tests/test_verification_invariant.py \
		tests/test_kernel_differential.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/utils/profiling.py \
		tests/test_utils_buffers.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/rl \
		tests/test_rl_ppo.py tests/test_rl_ddpg.py tests/test_rl_policies.py \
		tests/test_rl_components.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/attacks/fgsm.py \
		tests/test_attacks.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/core \
		tests/test_core_cocktail.py tests/test_core_distillation.py \
		tests/test_core_mixing.py tests/test_training_determinism.py

SHARD_SMOKE_DIR ?= runs/shard-smoke
shard-smoke:
	rm -rf $(SHARD_SMOKE_DIR) $(SHARD_SMOKE_DIR)-jobs2
	$(PYTHON) -m repro scenarios run --scenario pendulum --scenario cartpole \
		--no-train --no-verify --samples 4 --run-dir $(SHARD_SMOKE_DIR) --shard 1/2
	$(PYTHON) -m repro scenarios run --scenario pendulum --scenario cartpole \
		--no-train --no-verify --samples 4 --run-dir $(SHARD_SMOKE_DIR) --shard 2/2
	$(PYTHON) -m repro runs merge --run-dir $(SHARD_SMOKE_DIR) --csv $(SHARD_SMOKE_DIR)/matrix.csv
	$(PYTHON) -m repro scenarios run --scenario pendulum --scenario cartpole \
		--no-train --no-verify --samples 4 --run-dir $(SHARD_SMOKE_DIR)-jobs2 --jobs 2 \
		--csv $(SHARD_SMOKE_DIR)-jobs2/matrix.csv
	cmp $(SHARD_SMOKE_DIR)/matrix.csv $(SHARD_SMOKE_DIR)-jobs2/matrix.csv
	$(PYTHON) -m repro scenarios run --scenario pendulum --scenario cartpole \
		--no-train --no-verify --samples 4 --jobs 2 --csv $(SHARD_SMOKE_DIR)-jobs2/no-run-dir.csv
	cmp $(SHARD_SMOKE_DIR)/matrix.csv $(SHARD_SMOKE_DIR)-jobs2/no-run-dir.csv

WATCH_SMOKE_DIR ?= runs/watch-smoke
watch-smoke:
	rm -rf $(WATCH_SMOKE_DIR)
	$(PYTHON) -m repro scenarios run --scenario pendulum --scenario cartpole \
		--no-train --no-verify --samples 4 --run-dir $(WATCH_SMOKE_DIR) --shard 1/2
	$(PYTHON) -m repro scenarios run --scenario pendulum --scenario cartpole \
		--no-train --no-verify --samples 4 --run-dir $(WATCH_SMOKE_DIR) --shard 2/2
	$(PYTHON) -m repro runs watch --run-dir $(WATCH_SMOKE_DIR) --once
	$(PYTHON) -m repro runs stats --run-dir $(WATCH_SMOKE_DIR)

SERVE_SMOKE_DIR ?= runs/serve-smoke
serve-smoke:
	rm -rf $(SERVE_SMOKE_DIR)
	$(PYTHON) -m repro serve --run-dir $(SERVE_SMOKE_DIR) & \
	trap 'kill $$! 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		test -f $(SERVE_SMOKE_DIR)/service/server.json && break; sleep 0.1; done; \
	test -f $(SERVE_SMOKE_DIR)/service/server.json; \
	$(PYTHON) -m repro submit matrix --set scenarios=pendulum --set samples=4 \
		--set train=false --set verify=false \
		--run-dir $(SERVE_SMOKE_DIR) --wait && \
	$(PYTHON) -m repro jobs list --run-dir $(SERVE_SMOKE_DIR) && \
	$(PYTHON) -m repro runs watch --run-dir $(SERVE_SMOKE_DIR) --once && \
	$(PYTHON) -m repro jobs shutdown --run-dir $(SERVE_SMOKE_DIR) && \
	wait $$!

scenario-smoke:
	REPRO_SCALE=quick $(PYTHON) -m pytest -q -m scenario_smoke tests

bench:
	REPRO_SCALE=$${REPRO_SCALE:-quick} $(PYTHON) -m pytest -q benchmarks

train-bench:
	REPRO_RECORD=1 $(PYTHON) -m pytest -q -s benchmarks/test_training_speed.py

SEED ?= 0
perf-train:
	python3 perfbench/run.py --workload train --seed $(SEED) --seconds 36 --trace 1

perf-verify:
	python3 perfbench/run.py --workload verify --seed $(SEED) --seconds 36 --trace 1

perf-matrix:
	python3 perfbench/run.py --workload matrix --seed $(SEED) --seconds 36 --trace 1

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
