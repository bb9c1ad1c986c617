"""Tests for the text plotting helpers and experiment persistence."""

import json

import numpy as np
import pytest

from repro import CocktailConfig, CocktailPipeline, make_default_experts
from repro.systems.sets import Box
from repro.utils.persistence import (
    load_student_controller,
    save_cocktail_result,
    save_experiment_record,
)
from repro.utils.plotting import ascii_heatmap, ascii_series, box_series_table


class TestAsciiSeries:
    def test_contains_title_and_range(self):
        rendered = ascii_series([0.0, 0.5, -0.5, 1.0], title="u(t)")
        assert "u(t)" in rendered
        assert "max +1.000" in rendered

    def test_downsamples_long_series(self):
        rendered = ascii_series(np.sin(np.linspace(0, 10, 500)), width=50)
        assert len(rendered.splitlines()[-1]) == 50

    def test_empty_series(self):
        assert "(empty series)" in ascii_series([], title="u")

    def test_constant_series_does_not_divide_by_zero(self):
        rendered = ascii_series([0.0, 0.0, 0.0])
        assert rendered.splitlines()[-1]


class TestAsciiHeatmap:
    def test_dimensions(self):
        mask = np.zeros(16, dtype=bool)
        mask[5] = True
        rendered = ascii_heatmap(mask, resolution=4, title="X_I")
        lines = rendered.splitlines()
        assert lines[0] == "X_I"
        assert len(lines) == 5
        assert all(len(line) == 4 for line in lines[1:])
        assert sum(line.count("#") for line in lines) == 1

    def test_full_mask(self):
        rendered = ascii_heatmap(np.ones(9, dtype=bool), resolution=3)
        assert rendered.count("#") == 9


class TestBoxSeriesTable:
    def test_rows_match_boxes(self):
        boxes = [Box([0, 0], [1, 1]), Box([0.1, 0.1], [1.1, 1.1])]
        rendered = box_series_table(boxes, dimensions=(0, 1), title="reach")
        lines = rendered.splitlines()
        assert lines[0] == "reach"
        assert len(lines) == 2 + 2 + 1  # title + header + separator + 2 rows
        assert "[+0.1000, +1.1000]" in lines[-1]


class TestExperimentRecords:
    def test_json_roundtrip_with_numpy_values(self, tmp_path):
        record = {"safe_rate": np.float64(0.97), "energies": np.array([1.0, 2.0])}
        path = save_experiment_record(record, tmp_path / "nested" / "record.json")
        loaded = json.loads(path.read_text())
        assert loaded["safe_rate"] == pytest.approx(0.97)
        assert loaded["energies"] == [1.0, 2.0]

    def test_unserialisable_value_raises(self, tmp_path):
        with pytest.raises(TypeError):
            save_experiment_record({"bad": object()}, tmp_path / "record.json")


class TestCocktailResultPersistence:
    @pytest.fixture(scope="class")
    def saved_result(self, tmp_path_factory):
        from repro.systems import VanDerPolOscillator

        system = VanDerPolOscillator()
        experts = make_default_experts(system)
        result = CocktailPipeline(system, experts, CocktailConfig.fast(seed=0)).run()
        directory = tmp_path_factory.mktemp("artifacts")
        save_cocktail_result(result, directory, record={"system": "vanderpol"})
        return system, result, directory

    def test_record_written(self, saved_result):
        _, result, directory = saved_result
        record = json.loads((directory / "record.json").read_text())
        assert record["experts"] == ["kappa1", "kappa2"]
        assert record["dataset_size"] == len(result.dataset)
        assert record["record"]["system"] == "vanderpol"

    def test_student_roundtrip(self, saved_result):
        system, result, directory = saved_result
        reloaded = load_student_controller(directory, name="kappa_star")
        points = system.safe_region.sample(np.random.default_rng(0), count=20)
        np.testing.assert_allclose(reloaded.batch_control(points), result.student.batch_control(points), atol=1e-12)

    def test_direct_student_roundtrip(self, saved_result):
        _, result, directory = saved_result
        reloaded = load_student_controller(directory, name="kappaD")
        origin = np.zeros((1, 2))
        np.testing.assert_allclose(
            reloaded.batch_control(origin), result.direct_student.batch_control(origin), atol=1e-12
        )

    def test_missing_controller_name(self, saved_result):
        _, _, directory = saved_result
        with pytest.raises(KeyError):
            load_student_controller(directory, name="kappa_unknown")
