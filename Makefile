# Developer entry points.  `test` wraps the tier-1 verification command used
# by CI and the roadmap; `test-fast` is the inner-loop subset (unit tests
# only: no scenario_smoke cells, no benchmarks -- run `test-cov` alongside it
# when touching the experiments run store); `test-cov` enforces a >=80%
# line-coverage floor on src/repro/experiments via tools/check_coverage.py
# (pytest-cov when installed, a stdlib settrace collector otherwise), with
# the resume and shard/merge packs in its test list (the shard packs cover
# the local two-shard stand-in the repo benchmark runs), and enforces the
# same floor on src/repro/scenarios via the matrix executor, shard and
# resume packs, on src/repro/telemetry
# and src/repro/jobs via their test packs, on src/repro/rl via the PPO,
# DDPG, policy, component, lockstep-env, GAE-property and training-digest
# packs (the closed-form policy, critic and actor gradients, the caller-reset
# ControlEnv and the trained-weight pins included), on src/repro/baselines
# via the baselines pack, on src/repro/attacks via the attack and PGD packs
# (the FGSM input gradient, the batched closed-loop adversaries), on
# src/repro/systems via the systems and scenario-conformance packs (every
# plant's dynamics_batch, step_batch, the rollout engine), on
# src/repro/experts via the expert, MPC and expert batch-kernel packs (the
# batched LQR linearisation and MPC costs, the Riccati solver and each of its
# LinAlgError paths, the expert gain digest, the catalog control digests), on
# src/repro/core via the core packs plus the training-determinism pack
# (the kappa_D worker and its failure paths included), on
# src/repro/utils/parallel.py (the one task executor) via the parallel
# pack plus the matrix fault pack, on src/repro/verification via the verification packs
# (test_verification_batch.py holds the comparisons against the frozen
# reference in tests/verification_reference.py) plus the kernel
# differential pack, on src/repro/nn via the test_nn_*.py packs (layers,
# Lipschitz bound, network, optimisers, serialisation, closed-form VJP),
# and on src/repro/metrics via the metrics pack;
# `matrix-smoke` runs a two-scenario evaluate-only matrix three times --
# inline (`--jobs 1`) and on a 2-worker pool (`--jobs 2`) against run
# directories, and on the pool without one -- `cmp`s the three CSVs (one
# schema, the same bytes at every width) and runs `runs stats` on the
# inline run's event log;
# `scenario-smoke` runs the fast train->evaluate->verify cell for every
# registered scenario (also collected by `test` via the scenario_smoke
# pytest marker); `bench` regenerates the paper's tables/figures at the
# quick scale; `train-bench` re-times the scalar-vs-vectorized
# training stages and refreshes the committed CSV; `perf-train SEED=N` runs the
# repo benchmark's `train` workload with the per-layer trace on (optimizer
# step, distillation, PPO collect and update); `perf-matrix SEED=N`
# runs its `matrix` workload with the trace on (expert batch_controls, FGSM,
# evaluation, run store, the two-shard stand-in and its merge); `perf-verify SEED=N` runs its
# `verify` workload with the trace on (partition, Bernstein coefficients,
# IBP, reach steps, invariant set); `verify-digests` prints, per frozen
# perfbench student, the reach status, partition count, epsilon, reach steps
# completed and work, invariant elimination sweeps and a sha256 over the
# reach boxes and invariant mask (run it on two trees and diff the output
# to check that verdicts are bit-identical; the digests do not depend on the
# CPU count, and `taskset -c 0 $(MAKE) verify-digests` gives the one-CPU run,
# where the invariant analysis computes every grid cell inline); `train-digests`,
# its training twin, trains each paper system at the benchmark's `train`
# budgets and widths, seed 0, and prints the weights digest of A_W's policy,
# kappa* and kappa_D, a sha256 of each stage logger's history and a sha256
# of the Table I record `repro train` writes (Sr, e, L per controller; diff it
# across two trees to check that training and its Table I are bit-identical);
# `inputs-digests`
# prints the repo benchmark's inputs digest of its `train`, `verify` and
# `matrix` workloads (what each asks the program to compute, resolved through
# the job layer) and its input-drift list (diff it across two trees to check
# that a change leaves the benchmark's inputs alone; perfbench is only read);
# `lint` is a fast syntax gate (no third-party linter is vendored into the
# image).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-fast test-cov matrix-smoke scenario-smoke bench train-bench perf-train perf-verify perf-matrix verify-digests train-digests inputs-digests lint

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
		tests/test_jobs_messages.py tests/test_jobs_runner.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/verification \
		tests/test_verification_batch.py tests/test_verification_partition.py \
		tests/test_verification_reachability.py tests/test_verification_bernstein.py \
		tests/test_verification_intervals.py tests/test_verification_invariant.py \
		tests/test_kernel_differential.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/utils/profiling.py \
		tests/test_utils_buffers.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/utils/parallel.py \
		tests/test_utils_parallel.py tests/test_matrix_shard_faults.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/rl \
		tests/test_rl_ppo.py tests/test_rl_ddpg.py tests/test_rl_policies.py \
		tests/test_rl_components.py tests/test_rl_env.py \
		tests/test_rl_gae_properties.py tests/test_rl_digests.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/baselines \
		tests/test_baselines.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/attacks \
		tests/test_attacks.py tests/test_attacks_pgd.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/systems \
		tests/test_systems_batch.py tests/test_systems_dynamics.py \
		tests/test_systems_sets.py tests/test_systems_simulation.py \
		tests/test_scenarios_conformance.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/experts \
		tests/test_experts.py tests/test_experts_mpc.py tests/test_expert_batch_kernels.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/core \
		tests/test_core_cocktail.py tests/test_core_distillation.py \
		tests/test_core_mixing.py tests/test_training_determinism.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/nn \
		tests/test_nn_layers.py tests/test_nn_lipschitz.py tests/test_nn_network.py \
		tests/test_nn_optim.py tests/test_nn_serialization.py tests/test_nn_vjp.py
	$(PYTHON) tools/check_coverage.py --floor 80 --target src/repro/metrics \
		tests/test_metrics.py

MATRIX_SMOKE_DIR ?= runs/matrix-smoke
MATRIX_SMOKE = $(PYTHON) -m repro scenarios run --scenario pendulum --scenario cartpole \
	--no-train --no-verify --samples 4
matrix-smoke:
	rm -rf $(MATRIX_SMOKE_DIR)
	$(MATRIX_SMOKE) --jobs 1 --run-dir $(MATRIX_SMOKE_DIR)/jobs1 --csv $(MATRIX_SMOKE_DIR)/jobs1.csv
	$(MATRIX_SMOKE) --jobs 2 --run-dir $(MATRIX_SMOKE_DIR)/jobs2 --csv $(MATRIX_SMOKE_DIR)/jobs2.csv
	$(MATRIX_SMOKE) --jobs 2 --csv $(MATRIX_SMOKE_DIR)/no-run-dir.csv
	cmp $(MATRIX_SMOKE_DIR)/jobs1.csv $(MATRIX_SMOKE_DIR)/jobs2.csv
	cmp $(MATRIX_SMOKE_DIR)/jobs1.csv $(MATRIX_SMOKE_DIR)/no-run-dir.csv
	$(PYTHON) -m repro runs stats --run-dir $(MATRIX_SMOKE_DIR)/jobs1

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

verify-digests:
	$(PYTHON) tools/verify_digests.py

train-digests:
	$(PYTHON) tools/train_digests.py

inputs-digests:
	$(PYTHON) tools/inputs_digests.py

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples tools
