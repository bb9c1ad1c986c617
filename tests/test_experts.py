"""Tests for the expert controllers and the default expert factory."""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.experts import (
    Controller,
    FunctionController,
    LinearStateFeedback,
    LQRController,
    NeuralController,
    PolynomialController,
    RandomController,
    VanDerPolFeedbackLinearization,
    ZeroController,
    linearize,
    make_default_experts,
)
from repro.experts.ddpg_expert import DDPGExpertSpec, train_ddpg_expert
from repro.experts.lqr import riccati_gain, solve_discrete_riccati
from repro.metrics import evaluate_robustness
from repro.nn.network import MLP
from repro.scenarios import list_scenarios
from repro.systems import make_system
from repro.systems.simulation import rollout

#: sha256 prefix over ``gain``, ``A`` and ``B`` (each made contiguous) of every
#: default expert of the catalog scenarios plus ``vanderpol?mu=1.5``, in that
#: order.  ``A`` and ``B`` hold the bits ``linearize`` had when it stepped the
#: plant one state at a time; the LQR gains were re-recorded when the SDA
#: Riccati solver replaced SciPy's (they agree with SciPy's to ~1e-14).
EXPERT_GAIN_DIGEST = "1a99dabe37d74742"

#: Control cost ``R / I`` of every catalog LQR expert, by (scenario, name);
#: every one has state cost ``Q = I``.
CATALOG_LQR_CONTROL_COSTS = {
    ("3d", "kappa1"): 0.05,
    ("acc", "kappa1"): 0.05,
    ("acc", "kappa2"): 8.0,
    ("cartpole", "kappa1"): 0.05,
}


class TestBaseControllers:
    def test_function_controller(self):
        controller = FunctionController(lambda states: states[:, :1] * 2.0, name="double")
        np.testing.assert_allclose(controller.batch_control(np.array([[1.5], [-1.0]])), [[3.0], [-2.0]])
        assert controller.name == "double"

    def test_zero_controller(self):
        controller = ZeroController(control_dim=2)
        np.testing.assert_allclose(controller.batch_control(np.ones((4, 3))), np.zeros((4, 2)))

    def test_random_controller_bounded(self):
        controller = RandomController([-1.0], [1.0], rng=0)
        controls = controller.batch_control(np.zeros((50, 2)))
        assert controls.shape == (50, 1)
        assert np.all(np.abs(controls) <= 1.0)
        assert len(np.unique(controls)) == 50  # one draw per row

    def test_linear_state_feedback(self):
        controller = LinearStateFeedback([[1.0, 2.0]])
        np.testing.assert_allclose(controller.batch_control(np.array([[1.0, 1.0]])), [[-3.0]])

    def test_linear_state_feedback_batch_matches_single(self):
        controller = LinearStateFeedback([[0.5, -0.3]])
        states = np.random.default_rng(0).normal(size=(10, 2))
        batch = controller.batch_control(states)
        singles = np.concatenate([controller.batch_control(state[None, :]) for state in states])
        np.testing.assert_allclose(batch, singles)

    def test_controller_output_is_2d_array(self):
        controller = FunctionController(lambda states: np.full(len(states), 3.0))
        assert controller.batch_control(np.zeros(2)).shape == (1, 1)
        assert controller.batch_control(np.zeros((5, 2))).shape == (5, 1)


class TestNeuralController:
    def test_wraps_mlp(self):
        net = MLP(2, 1, hidden_sizes=(8,), seed=0)
        controller = NeuralController(net, name="student")
        states = np.array([[0.3, -0.3], [0.1, 0.2]])
        np.testing.assert_allclose(controller.batch_control(states), net.predict(states))

    def test_output_scaling(self):
        net = MLP(2, 1, hidden_sizes=(8,), output_activation="tanh", seed=0)
        controller = NeuralController(net, output_low=[-20.0], output_high=[20.0])
        outputs = controller.batch_control(np.random.default_rng(0).normal(size=(50, 2)) * 5)
        assert np.all(np.abs(outputs) <= 20.0)

    def test_scaling_requires_both_bounds(self):
        net = MLP(2, 1, seed=0)
        with pytest.raises(ValueError):
            NeuralController(net, output_low=[-1.0])

    def test_batch_matches_single(self):
        net = MLP(3, 2, hidden_sizes=(8,), seed=1)
        controller = NeuralController(net)
        states = np.random.default_rng(0).normal(size=(5, 3))
        np.testing.assert_allclose(
            controller.batch_control(states),
            np.concatenate([controller.batch_control(s[None, :]) for s in states]),
        )


class TestLQR:
    def test_linearize_vanderpol_at_origin(self, vanderpol):
        A, B = linearize(vanderpol)
        np.testing.assert_allclose(A, [[1.0, 0.05], [-0.05, 1.05]], atol=1e-6)
        np.testing.assert_allclose(B, [[0.0], [0.05]], atol=1e-6)

    def test_lqr_stabilises_vanderpol_near_origin(self, vanderpol):
        controller = LQRController(vanderpol, state_cost=1.0, control_cost=1.0)
        trajectory = rollout(vanderpol, controller, [0.5, 0.5], rng=0)
        assert trajectory.safe
        assert np.linalg.norm(trajectory.states[-1]) < np.linalg.norm(trajectory.states[0])

    def test_cheaper_control_gives_larger_gains(self, threed):
        aggressive = LQRController(threed, control_cost=0.05)
        gentle = LQRController(threed, control_cost=10.0)
        assert np.linalg.norm(aggressive.gain) > np.linalg.norm(gentle.gain)

    def test_linearize_returns_contiguous_jacobians(self, cartpole):
        A, B = linearize(cartpole, state_equilibrium=np.full(4, 0.01), control_equilibrium=[0.5])
        assert A.shape == (4, 4) and B.shape == (4, 1)
        assert A.flags.c_contiguous and B.flags.c_contiguous
        # d(position')/d(velocity) = dt, d(angle')/d(angular velocity) = dt.
        assert A[0, 1] == pytest.approx(cartpole.dt) and A[2, 3] == pytest.approx(cartpole.dt)

    def test_expert_gains_keep_their_bits(self):
        digest = hashlib.sha256()
        for name in list(list_scenarios()) + ["vanderpol?mu=1.5"]:
            for expert in make_default_experts(make_system(name)):
                for attribute in ("gain", "A", "B"):
                    if hasattr(expert, attribute):
                        digest.update(np.ascontiguousarray(getattr(expert, attribute)).tobytes())
        assert digest.hexdigest()[:16] == EXPERT_GAIN_DIGEST

    def test_batch_control_matches_single(self, cartpole):
        controller = LQRController(cartpole, control_cost=0.1)
        states = np.random.default_rng(0).normal(size=(6, 4)) * 0.1
        np.testing.assert_allclose(
            controller.batch_control(states),
            np.concatenate([controller.batch_control(s[None, :]) for s in states]),
        )


def _stabilisability_margin(A, B) -> float:
    """Smallest singular value of ``[A - lam I, B]`` over the eigenvalues
    ``lam`` of ``A`` outside the open unit disc (the PBH test); ``inf`` when
    ``A`` is stable.  ``(A', C')`` gives the detectability margin of ``(A, C)``."""

    identity = np.eye(len(A))
    return min(
        (
            np.linalg.svd(np.hstack([A - lam * identity, B]), compute_uv=False)[-1]
            for lam in np.linalg.eigvals(A)
            if abs(lam) >= 1.0
        ),
        default=np.inf,
    )


def _riccati_residual(A, B, Q, R, P) -> float:
    """1-norm of the Riccati equation's residual at ``P``, relative to its terms."""

    residual = A.T @ P @ A - P - A.T @ P @ B @ riccati_gain(A, B, R, P) + Q
    scale = np.linalg.norm(P, 1) * (1.0 + np.linalg.norm(A, 1) ** 2) + np.linalg.norm(Q, 1)
    return np.linalg.norm(residual, 1) / scale


class TestRiccati:
    """The SDA solver against SciPy's ``solve_discrete_are``, a test-only oracle."""

    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 2),
        rank=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_on_stabilisable_detectable_problems(self, n, m, rank, seed):
        from scipy.linalg import solve_discrete_are

        rng = np.random.default_rng(seed)
        A = rng.normal(scale=0.8, size=(n, n))
        B = rng.normal(size=(n, m))
        C = rng.normal(size=(min(rank, n), n))
        N = rng.normal(size=(m, m))
        Q, R = C.T @ C, N @ N.T + 0.1 * np.eye(m)
        assume(min(_stabilisability_margin(A, B), _stabilisability_margin(A.T, C.T)) >= 0.25)

        P = solve_discrete_riccati(A, B, Q, R)
        np.testing.assert_array_equal(P, P.T)
        assert np.linalg.eigvalsh(P).min() >= -1e-12 * np.linalg.norm(P, 2)
        P_scipy = solve_discrete_are(A, B, Q, R)
        K, K_scipy = riccati_gain(A, B, R, P), riccati_gain(A, B, R, P_scipy)
        assert np.linalg.norm(K - K_scipy) <= 1e-10 * np.linalg.norm(K_scipy)
        # Below ~1e-14 the residual is the rounding of evaluating it.
        assert _riccati_residual(A, B, Q, R, P) <= 10.0 * max(_riccati_residual(A, B, Q, R, P_scipy), 1e-14)

    def test_catalog_lqr_gains_match_scipy(self):
        from scipy.linalg import solve_discrete_are

        seen = set()
        for name in list_scenarios():
            system = make_system(name)
            for expert in make_default_experts(system):
                if not isinstance(expert, LQRController):
                    continue
                seen.add((name, expert.name))
                R = np.eye(system.control_dim) * CATALOG_LQR_CONTROL_COSTS[(name, expert.name)]
                P = solve_discrete_are(expert.A, expert.B, np.eye(system.state_dim), R)
                K = riccati_gain(expert.A, expert.B, R, P)
                assert np.linalg.norm(expert.gain - K) <= 1e-13 * np.linalg.norm(K), (name, expert.name)
        assert seen == set(CATALOG_LQR_CONTROL_COSTS)

    @pytest.mark.parametrize(
        "A,B,Q,match",
        [
            # The unstable mode 2 is not controllable: the iterates overflow.
            (np.diag([2.0, 0.5]), [[0.0], [1.0]], np.eye(2), "overflowed"),
            # A marginal mode that no control reaches: H doubles every step.
            ([[1.0]], [[0.0]], [[1.0]], "did not converge"),
            # The unstable mode is not observed (Q = 0): H stays 0, K = 0.
            ([[2.0]], [[1.0]], [[0.0]], "does not stabilise"),
            # A marginal mode that is not observed: the closed loop stays at 1.
            ([[1.0]], [[1.0]], [[0.0]], "does not stabilise"),
        ],
        ids=["not-stabilisable", "no-convergence", "not-detectable", "marginal-closed-loop"],
    )
    def test_raises_linalg_error_without_a_solution(self, A, B, Q, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow is an error, not a RuntimeWarning
            with pytest.raises(np.linalg.LinAlgError, match=match):
                solve_discrete_riccati(np.array(A), np.array(B), np.array(Q), np.eye(1))

    def test_controller_raises_on_an_uncontrollable_plant(self, vanderpol, monkeypatch):
        monkeypatch.setattr(vanderpol, "dynamics_batch", lambda states, controls, disturbances: 2.0 * states)
        with pytest.raises(np.linalg.LinAlgError):
            LQRController(vanderpol)

    def test_runtime_imports_no_scipy(self):
        """The CLI and every registered scenario's experts build with SciPy
        unimportable, and leave no SciPy module loaded."""

        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import repro.cli\n"
            "from repro.experts import make_default_experts\n"
            "from repro.scenarios import list_scenarios\n"
            "from repro.systems import make_system\n"
            "for name in list_scenarios():\n"
            "    make_default_experts(make_system(name))\n"
            "print(sorted(m for m, module in sys.modules.items() if m.split('.')[0] == 'scipy' and module))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestPolynomial:
    def test_linear_factory(self):
        controller = PolynomialController.linear([1.0, 2.0, 3.0])
        np.testing.assert_allclose(controller.batch_control(np.array([[1.0, 1.0, 1.0]])), [[-6.0]])
        assert controller.degree() == 1

    def test_quadratic_terms(self):
        controller = PolynomialController([[(1.0, (2, 0)), (-1.0, (0, 1))]])
        np.testing.assert_allclose(controller.batch_control(np.array([[3.0, 2.0]])), [[9.0 - 2.0]])
        assert controller.degree() == 2

    def test_default_three_dimensional_is_low_gain(self, threed):
        controller = PolynomialController.default_three_dimensional()
        outputs = controller.batch_control(threed.safe_region.sample(np.random.default_rng(0), 100))
        assert np.max(np.abs(outputs)) < 2.0  # small controls within the unit box

    def test_requires_polynomials(self):
        with pytest.raises(ValueError):
            PolynomialController([])

    def test_coefficients_roundtrip(self):
        controller = PolynomialController.linear([0.5, 1.5])
        coefficients = controller.coefficients()
        assert 0 in coefficients and len(coefficients[0]) == 2


class TestFeedbackLinearization:
    def test_cancels_nonlinearity(self, vanderpol):
        controller = VanDerPolFeedbackLinearization(k1=4.0, k2=6.0)
        states = np.array([[1.5, -0.8], [-0.4, 1.9], [0.0, 0.3]])
        controls = controller.batch_control(states)
        # After cancellation the closed loop is s2' = s2 + tau*(-k1 s1 - k2 s2)
        next_states = vanderpol.dynamics_batch(states, controls, np.zeros((3, 1)))
        expected_s2 = states[:, 1] + vanderpol.dt * (-4.0 * states[:, 0] - 6.0 * states[:, 1])
        np.testing.assert_allclose(next_states[:, 1], expected_s2, atol=1e-9)

    def test_high_safe_rate(self, vanderpol):
        controller = VanDerPolFeedbackLinearization()
        assert evaluate_robustness(vanderpol, controller, samples=60, rng=0).safe_rate > 0.85


class TestFactory:
    @pytest.mark.parametrize("fixture", ["vanderpol", "threed", "cartpole"])
    def test_returns_two_named_experts(self, fixture, request):
        system = request.getfixturevalue(fixture)
        experts = make_default_experts(system)
        assert len(experts) == 2
        assert experts[0].name == "kappa1"
        assert experts[1].name == "kappa2"
        for expert in experts:
            assert isinstance(expert, Controller)
            output = expert.batch_control(system.initial_set.center[None, :])
            assert output.shape == (1, system.control_dim)

    def test_experts_have_complementary_quality(self, vanderpol):
        kappa1, kappa2 = make_default_experts(vanderpol)
        sr1 = evaluate_robustness(vanderpol, kappa1, samples=80, rng=0).safe_rate
        sr2 = evaluate_robustness(vanderpol, kappa2, samples=80, rng=0).safe_rate
        assert sr1 > sr2  # kappa1 is the stronger expert

    def test_invalid_mode(self, vanderpol):
        with pytest.raises(ValueError):
            make_default_experts(vanderpol, mode="imitation")

    def test_unknown_system(self):
        class Custom:
            name = "custom"

        with pytest.raises(ValueError):
            make_default_experts(Custom())


class TestDDPGExpert:
    def test_tiny_training_produces_controller(self, vanderpol):
        spec = DDPGExpertSpec(hidden_sizes=(16,), episodes=2, seed=0, name="tiny")
        expert = train_ddpg_expert(vanderpol, spec, rng=0, episodes=1)
        assert expert.name == "tiny"
        output = expert.batch_control(np.array([[0.1, -0.1]]))
        assert output.shape == (1, 1)
        assert np.all(np.abs(output) <= 20.0)
        assert expert.network.num_parameters() > 0

    def test_ddpg_factory_mode(self, vanderpol):
        experts = make_default_experts(vanderpol, mode="ddpg", rng=0, ddpg_episodes=1)
        assert len(experts) == 2
        assert experts[0].name == "kappa1"
