"""Property tests for the canonical config digest (`repro.experiments.digest`).

The digest is the identity of every run-store entry, so these tests pin the
canonicalisation contract: insertion order and float formatting never leak
into the key, any changed field changes it, and a record that round-trips
through the JSON persistence layer (NumPy scalars/arrays included) keeps
its digest.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.digest import canonical_json, canonicalize, config_digest, weights_digest
from repro.utils.persistence import save_experiment_record

# JSON-able scalars (no NaN: NaN != NaN makes equality-based properties vacuous).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.text(max_size=12),
)
keys = st.text(min_size=1, max_size=8)
configs = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=12,
)


class TestOrderingInvariance:
    @given(st.dictionaries(keys, configs, min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_dict_insertion_order_never_changes_the_digest(self, mapping):
        reversed_mapping = dict(reversed(list(mapping.items())))
        assert list(reversed_mapping) != list(mapping) or len(mapping) < 2
        assert config_digest(mapping) == config_digest(reversed_mapping)

    def test_nested_ordering(self):
        a = {"outer": {"x": 1, "y": [1, 2]}, "z": 3}
        b = {"z": 3, "outer": {"y": [1, 2], "x": 1}}
        assert config_digest(a) == config_digest(b)

    def test_tuple_and_list_digest_alike(self):
        # A config must keep its digest across a JSON round-trip, which
        # turns tuples into lists.
        assert config_digest({"sizes": (32, 32)}) == config_digest({"sizes": [32, 32]})


class TestFloatFormatting:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=100, deadline=None)
    def test_formatting_of_the_same_float_is_irrelevant(self, value):
        # Any formatting that parses back to the same float digests the same.
        for text in (repr(value), format(value, ".17g"), format(value, "+.17e")):
            assert config_digest({"v": float(text)}) == config_digest({"v": value})

    def test_literal_spellings(self):
        assert config_digest(float("1.50")) == config_digest(1.5)
        assert config_digest(float("0.100")) == config_digest(0.1)

    def test_int_and_float_are_distinct(self):
        # 1 and 1.0 are different JSON values and different configs.
        assert config_digest({"v": 1}) != config_digest({"v": 1.0})


class TestFieldSensitivity:
    @given(
        st.dictionaries(keys, scalars, min_size=1, max_size=5),
        keys,
        scalars,
    )
    @settings(max_examples=100, deadline=None)
    def test_any_changed_field_changes_the_digest(self, mapping, key, value):
        # The digest is exactly a function of the canonical JSON text: a
        # change that survives canonicalisation (note False == 0 in Python
        # but not in JSON) must change the key, and nothing else may.
        changed = dict(mapping)
        changed[key] = value
        if canonical_json(changed) == canonical_json(mapping):
            assert config_digest(changed) == config_digest(mapping)
        else:
            assert config_digest(changed) != config_digest(mapping)

    def test_added_and_removed_fields(self):
        base = {"a": 1, "b": 2}
        assert config_digest(base) != config_digest({"a": 1})
        assert config_digest(base) != config_digest({"a": 1, "b": 2, "c": 3})

    def test_stage_separates_keyspaces(self):
        from repro.experiments import RunStore

        store = RunStore("unused")
        config = {"x": 1}
        assert store.key("train", config).digest != store.key("evaluate", config).digest


class TestNumpyRoundTrip:
    @given(
        st.dictionaries(
            keys,
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False, width=64).map(np.float64),
                st.integers(min_value=-(2**31), max_value=2**31).map(np.int64),
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=1,
                    max_size=4,
                ).map(lambda xs: np.asarray(xs, dtype=np.float64)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_digest_survives_the_persistence_round_trip(self, record):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = save_experiment_record(record, Path(tmp) / "record.json")
            loaded = json.loads(path.read_text())
        assert config_digest(loaded) == config_digest(record)

    def test_one_element_array_stays_a_list(self, tmp_path):
        # The historical `_jsonify` collapsed (1,)-arrays to scalars, which
        # broke digest stability across a round-trip; this pins the fix.
        record = {"array": np.asarray([2.0]), "scalar": np.float64(2.0)}
        loaded = json.loads(save_experiment_record(record, tmp_path / "r.json").read_text())
        assert loaded["array"] == [2.0]
        assert loaded["scalar"] == 2.0
        assert config_digest(loaded) == config_digest(record)
        assert config_digest({"v": np.asarray([2.0])}) != config_digest({"v": np.float64(2.0)})

    def test_numpy_and_python_scalars_digest_alike(self):
        assert config_digest(np.float64(0.25)) == config_digest(0.25)
        assert config_digest(np.int32(7)) == config_digest(7)
        assert config_digest(np.asarray([[1.0, 2.0]])) == config_digest([[1.0, 2.0]])

    def test_unsupported_types_are_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())


class TestWeightsDigest:
    def test_sensitive_to_values_shapes_and_names(self, rng):
        weights = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
        base = weights_digest(weights)
        assert base == weights_digest({k: v.copy() for k, v in weights.items()})
        perturbed = {k: v.copy() for k, v in weights.items()}
        perturbed["w"][0, 0] += 1e-12
        assert weights_digest(perturbed) != base
        assert weights_digest({"w": weights["w"], "b2": weights["b"]}) != base
        assert weights_digest(weights, extra={"arch": 1}) != base

    def test_matches_network_weights_digest_contract(self):
        # The live-network digest (the run store's controller identity) must
        # change whenever the raw-array digest changes.
        from repro.experiments.digest import network_weights_digest
        from repro.nn import MLP

        network = MLP(2, 1, hidden_sizes=(4,))
        before = network_weights_digest(network)
        raw_before = weights_digest(network.state_dict())
        network.layers[0].weight.data[0, 0] += 1.0
        assert network_weights_digest(network) != before
        assert weights_digest(network.state_dict()) != raw_before
