"""Tests for seeding, tables and the training logger."""

import numpy as np
import pytest

from repro.utils.logging import TrainingLogger
from repro.utils.seeding import get_rng, set_global_seed
from repro.utils.tables import ResultTable


class TestSeeding:
    def test_same_seed_same_stream(self):
        a = get_rng(42).normal(size=5)
        b = get_rng(42).normal(size=5)
        np.testing.assert_allclose(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert get_rng(generator) is generator

    def test_global_seed_used_as_default(self):
        set_global_seed(7)
        a = get_rng(None).normal(size=3)
        set_global_seed(7)
        b = get_rng(None).normal(size=3)
        np.testing.assert_allclose(a, b)


class TestResultTable:
    def test_render_and_csv(self):
        table = ResultTable("Demo", columns=["a", "b"])
        table.add_row("Sr (%)", {"a": 98.0, "b": 85.5})
        table.add_row("L", {"a": 7.6, "b": None})
        rendered = table.render()
        assert "Demo" in rendered and "Sr (%)" in rendered
        assert "-" in rendered  # the None entry
        assert table.to_csv().splitlines()[0] == "metric,a,b"
        assert list(table.as_dict()) == ["Sr (%)", "L"]

    def test_unknown_column_rejected(self):
        table = ResultTable("Demo", columns=["a"])
        with pytest.raises(KeyError):
            table.add_row("row", {"b": 1.0})

    def test_as_dict(self):
        table = ResultTable("Demo", columns=["x"])
        table.add_row("metric", {"x": 1.25})
        assert table.as_dict() == {"metric": {"x": "1.25"}}


class TestTrainingLogger:
    def test_history_and_series(self):
        logger = TrainingLogger("test")
        logger.log(loss=1.0, reward=-2.0)
        logger.log(loss=0.5, reward=-1.0)
        assert logger.epochs() == 2
        assert logger.series("loss") == [1.0, 0.5]
        assert logger.last("reward") == -1.0

    def test_last_default(self):
        logger = TrainingLogger("test")
        assert logger.last("missing", default=3.0) == 3.0

    def test_verbose_printing(self, capsys):
        logger = TrainingLogger("demo", verbose=True, print_every=1)
        logger.log(loss=0.25)
        assert "demo" in capsys.readouterr().out

    def test_sink_observes_every_epoch(self, capsys):
        observed = []
        logger = TrainingLogger(
            "demo",
            verbose=True,
            print_every=1,
            sink=lambda name, epoch, metrics: observed.append((name, epoch, metrics)),
        )
        logger.log(loss=1, reward=-2.0)
        logger.log(loss=0.5, reward=-1.0)
        assert observed == [
            ("demo", 1, {"loss": 1.0, "reward": -2.0}),
            ("demo", 2, {"loss": 0.5, "reward": -1.0}),
        ]
        assert all(isinstance(value, float) for _, _, metrics in observed for value in metrics.values())
        # The sink is an observer only: history and printing are unchanged.
        assert logger.series("loss") == [1.0, 0.5]
        assert "demo" in capsys.readouterr().out

    def test_no_sink_by_default(self):
        logger = TrainingLogger("demo")
        assert logger.sink is None
        logger.log(loss=1.0)  # nothing to call, nothing raised
        assert logger.epochs() == 1
