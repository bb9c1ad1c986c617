"""Integration tests for the end-to-end Cocktail pipeline (Algorithm 1)."""

import numpy as np
import pytest

from repro import CocktailConfig, CocktailPipeline, make_default_experts
from repro.core.cocktail import CocktailResult
from repro.core.config import DistillationConfig, MixingConfig
from repro.core.mixing import MixedController
from repro.experts import NeuralController
from repro.metrics import evaluate_controllers
from repro.nn.lipschitz import network_lipschitz
from repro.systems.simulation import safe_control_rate


@pytest.fixture(scope="module")
def vanderpol_result():
    """One shared fast pipeline run reused by every test in the module."""

    from repro.systems import VanDerPolOscillator

    system = VanDerPolOscillator()
    experts = make_default_experts(system)
    config = CocktailConfig(
        mixing=MixingConfig(epochs=4, steps_per_epoch=512, seed=0),
        distillation=DistillationConfig(epochs=50, dataset_size=1200, hidden_sizes=(24, 24), seed=0),
        seed=0,
    )
    pipeline = CocktailPipeline(system, experts, config)
    return system, experts, pipeline.run()


class TestPipelineStructure:
    def test_requires_two_experts(self, vanderpol, vanderpol_experts):
        with pytest.raises(ValueError):
            CocktailPipeline(vanderpol, vanderpol_experts[:1])

    def test_result_contains_all_controllers(self, vanderpol_result):
        _, _, result = vanderpol_result
        assert isinstance(result, CocktailResult)
        named = result.controllers()
        assert set(named) == {"kappa1", "kappa2", "AW", "kappaD", "kappa_star"}
        assert isinstance(named["AW"], MixedController)
        assert isinstance(named["kappa_star"], NeuralController)
        assert isinstance(named["kappaD"], NeuralController)

    def test_loggers_present(self, vanderpol_result):
        _, _, result = vanderpol_result
        assert "mixing" in result.loggers
        assert "robust_distillation" in result.loggers
        assert "direct_distillation" in result.loggers

    def test_dataset_size_matches_config(self, vanderpol_result):
        _, _, result = vanderpol_result
        assert len(result.dataset) == 1200

    def test_run_without_direct_baseline(self, vanderpol, vanderpol_experts):
        pipeline = CocktailPipeline(vanderpol, vanderpol_experts, CocktailConfig.fast(seed=1))
        result = pipeline.run(include_direct_baseline=False)
        assert result.direct_student is None
        assert "kappaD" not in result.controllers()

    def test_fast_config_budgets(self):
        config = CocktailConfig.fast(seed=0)
        assert config.mixing.epochs <= 5
        assert config.distillation.dataset_size <= 1000


class TestPipelineQuality:
    def test_student_controls_are_bounded_after_clipping(self, vanderpol_result):
        system, _, result = vanderpol_result
        states = system.safe_region.sample(np.random.default_rng(0), count=50)
        for state in states:
            control = system.clip_control(result.student(state))
            assert np.all(np.abs(control) <= 20.0)

    def test_student_tracks_teacher(self, vanderpol_result):
        system, _, result = vanderpol_result
        states = system.safe_region.sample(np.random.default_rng(1), count=100)
        teacher_controls = np.stack([system.clip_control(result.mixed_controller(s)) for s in states])
        student_controls = np.stack([result.student(s) for s in states])
        mse = float(np.mean((teacher_controls - student_controls) ** 2))
        assert mse < 25.0  # controls span [-20, 20]; the student stays close

    def test_mixed_controller_is_safe(self, vanderpol_result):
        system, _, result = vanderpol_result
        assert safe_control_rate(system, result.mixed_controller, samples=80, rng=2) > 0.8

    def test_student_safe_rate_close_to_best_expert(self, vanderpol_result):
        system, experts, result = vanderpol_result
        best_expert = max(
            safe_control_rate(system, expert, samples=80, rng=3) for expert in experts
        )
        student_rate = safe_control_rate(system, result.student, samples=80, rng=3)
        assert student_rate >= best_expert - 0.15

    def test_distilled_networks_have_finite_lipschitz(self, vanderpol_result):
        _, _, result = vanderpol_result
        assert np.isfinite(network_lipschitz(result.student.network))
        assert np.isfinite(network_lipschitz(result.direct_student.network))

    def test_evaluation_harness_consumes_result(self, vanderpol_result):
        system, _, result = vanderpol_result
        metrics = evaluate_controllers(system, result.controllers(), samples=30, seed=0)
        assert set(metrics) == set(result.controllers())
        for metric in metrics.values():
            assert 0.0 <= metric.clean.safe_rate <= 1.0


class TestPipelineOnOtherSystems:
    def test_three_dimensional_fast_run(self, threed):
        experts = make_default_experts(threed)
        pipeline = CocktailPipeline(threed, experts, CocktailConfig.fast(seed=0))
        result = pipeline.run(include_direct_baseline=False)
        control = result.student(np.zeros(3))
        assert control.shape == (1,)
        assert np.isfinite(control).all()

    def test_cartpole_run(self, cartpole):
        # Cartpole is open-loop unstable, so the student needs a slightly
        # larger distillation budget than CocktailConfig.fast() to balance
        # the pole reliably.
        experts = make_default_experts(cartpole)
        config = CocktailConfig(
            mixing=MixingConfig(epochs=3, steps_per_epoch=512, seed=0),
            distillation=DistillationConfig(
                epochs=80, dataset_size=1500, hidden_sizes=(32, 32), trajectory_fraction=0.7, seed=0
            ),
            seed=0,
        )
        pipeline = CocktailPipeline(cartpole, experts, config)
        result = pipeline.run(include_direct_baseline=False)
        assert safe_control_rate(cartpole, result.mixed_controller, samples=40, rng=0) > 0.8
        assert safe_control_rate(cartpole, result.student, samples=40, rng=0) > 0.5


class TestDirectBaselineBesideRobust:
    """``kappa_D`` trains in a worker beside ``kappa*``: same bits at any width."""

    CONFIG = CocktailConfig(
        mixing=MixingConfig(epochs=1, steps_per_epoch=64, seed=0),
        distillation=DistillationConfig(epochs=4, dataset_size=150, batch_size=64, seed=0),
        seed=0,
    )

    @staticmethod
    def _cpus(monkeypatch, count):
        monkeypatch.setattr("repro.utils.parallel.available_cpu_count", lambda: count)

    def _pipeline(self):
        from repro.systems import VanDerPolOscillator

        system = VanDerPolOscillator()
        return CocktailPipeline(system, make_default_experts(system), self.CONFIG)

    def _sequential(self):
        """The historical order on one generator: kappa*, then kappa_D."""

        pipeline = self._pipeline()
        pipeline._distillation_loggers = {}
        dataset = pipeline.collect_dataset(pipeline.train_mixing())
        student = pipeline.distill(dataset, robust=True)
        direct = pipeline.distill(dataset, robust=False)
        return pipeline, dataset, student, direct, pipeline._distillation_loggers

    def test_students_rng_and_logs_match_the_sequential_order_at_any_width(self, monkeypatch):
        runs = {}
        for count in (1, 2):
            self._cpus(monkeypatch, count)
            pipeline = self._pipeline()
            result = pipeline.run()
            runs[count] = (
                pipeline, result.dataset, result.student, result.direct_student, result.loggers
            )
        runs["sequential"] = self._sequential()

        reference_pipeline, dataset, student, direct, loggers = runs["sequential"]
        for pipeline, other_dataset, other_student, other_direct, other_loggers in (runs[1], runs[2]):
            np.testing.assert_array_equal(other_dataset.states, dataset.states)
            np.testing.assert_array_equal(other_dataset.controls, dataset.controls)
            for left, right in ((other_student, student), (other_direct, direct)):
                assert left.name == right.name
                expected = right.network.state_dict()
                for key, value in left.network.state_dict().items():
                    np.testing.assert_array_equal(value, expected[key])
            for stage in ("robust_distillation", "direct_distillation"):
                assert dict(other_loggers[stage].history) == dict(loggers[stage].history)
                assert other_loggers[stage].epochs() == 4
            assert pipeline._rng.bit_generator.state == reference_pipeline._rng.bit_generator.state

    def test_stage_seconds_carry_both_distillations(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        seconds = self._pipeline().run().stage_seconds
        assert list(seconds) == ["mixing", "dataset", "robust_distillation", "direct_distillation"]
        assert all(value > 0.0 for value in seconds.values())

    def test_one_cpu_or_a_daemonic_parent_distils_inline(self, monkeypatch):
        import multiprocessing
        import os

        from repro.core.distillation import DirectDistiller

        pids = []
        original = DirectDistiller.distill

        def record(self, dataset, epochs=None):
            pids.append(os.getpid())
            return original(self, dataset, epochs)

        monkeypatch.setattr(DirectDistiller, "distill", record)
        self._cpus(monkeypatch, 1)
        self._pipeline().run()
        self._cpus(monkeypatch, 2)
        monkeypatch.setitem(multiprocessing.current_process()._config, "daemon", True)
        self._pipeline().run()
        assert pids == [os.getpid(), os.getpid()]

    def test_worker_exception_is_reraised(self, monkeypatch):
        from repro.core.distillation import DirectDistiller

        def fail(self, dataset, epochs=None):
            raise ArithmeticError("direct distillation diverged")

        monkeypatch.setattr(DirectDistiller, "distill", fail)
        self._cpus(monkeypatch, 2)
        with pytest.raises(ArithmeticError, match="diverged"):
            self._pipeline().run()

    def test_killed_worker_raises_a_typed_error_naming_the_stage(self, monkeypatch):
        import os
        import signal

        from repro.core.distillation import DirectDistiller
        from repro.utils.parallel import WorkerLost

        parent = os.getpid()

        def die(self, dataset, epochs=None):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            raise AssertionError("kappa_D ran in the parent")

        monkeypatch.setattr(DirectDistiller, "distill", die)
        self._cpus(monkeypatch, 2)
        with pytest.raises(WorkerLost, match="direct_distillation") as caught:
            self._pipeline().run()
        assert caught.value.tasks == ["direct_distillation"]
