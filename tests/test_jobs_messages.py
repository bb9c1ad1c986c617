"""Typed job specs: round-trip, strictness, golden bytes.

Mirrors ``tests/test_telemetry_events.py`` for the job specs of
:mod:`repro.jobs.messages`:

* every job spec round-trips ``to_line`` -> ``from_json`` exactly
  (Hypothesis property over arbitrary field values);
* decoding is strict: an unknown field is an error, because silently
  dropping it would change which job the spec describes;
* every field is checked against its annotation on construction and on
  decode, and the error names the field;
* the wire bytes are pinned by a golden log, since a sharded run's matrix
  manifest and every job digest are built from them.
"""

import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs.messages import (
    EvaluateJobSpec,
    MatrixJobSpec,
    TrainJobSpec,
    VerifySweepJobSpec,
)
from repro.scenarios.matrix import matrix_manifest
from repro.utils.messages import MessageValidationError

# -- strategies --------------------------------------------------------

_name = st.text(alphabet=string.ascii_lowercase + string.digits + "-_?=.", min_size=1, max_size=12)
_count = st.integers(min_value=0, max_value=10**9)
_positive = st.integers(min_value=1, max_value=10**6)
_budget = st.none() | st.integers(min_value=1, max_value=10**6)
_fraction = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_perturbation = st.sampled_from(["none", "attack", "noise"])
_json_dict = st.dictionaries(_name, st.integers(min_value=0, max_value=99) | _name, max_size=3)

SPEC_STRATEGIES = {
    TrainJobSpec: st.builds(
        TrainJobSpec,
        system=_name,
        output=st.just("") | _name,
        mixing_epochs=_budget,
        mixing_steps=_budget,
        distill_epochs=_budget,
        dataset_size=_budget,
        eval_samples=_budget,
        num_envs=_budget,
        train_batch_size=_budget,
        eval_batch_size=_count,
        seed=_count,
    ),
    EvaluateJobSpec: st.builds(
        EvaluateJobSpec,
        system=_name,
        controller_dir=_name,
        controller=_name,
        perturbation=_perturbation,
        fraction=_fraction,
        samples=_positive,
        batch_size=_count,
        seed=_count,
    ),
    VerifySweepJobSpec: st.builds(
        VerifySweepJobSpec,
        specs=st.lists(_name, min_size=1, max_size=3).map(tuple),
        target_error=_fraction,
        degree=_positive,
        max_partitions=_positive,
        reach_steps=_positive,
        reach_box_scale=_fraction,
        invariant_grid=_count,
        work_budget=_count,
        jobs=_count,
    ),
    MatrixJobSpec: st.builds(
        MatrixJobSpec,
        scenarios=st.lists(_name, max_size=3).map(tuple),
        perturbations=st.lists(_perturbation, min_size=1, max_size=3).map(tuple),
        samples=_positive,
        fraction=_fraction,
        train=st.booleans(),
        verify=st.booleans(),
        jobs=_count,
        seed=_count,
        budget_scale=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        train_overrides=_json_dict,
        verify_overrides=_json_dict,
    ),
}

_any_spec = st.one_of(*SPEC_STRATEGIES.values())


class TestRoundTrip:
    @settings(max_examples=60)
    @given(spec=_any_spec)
    def test_spec_round_trips_exactly(self, spec):
        assert type(spec).from_json(json.loads(spec.to_line())) == spec

    @settings(max_examples=20)
    @given(spec=_any_spec)
    def test_payload_leads_with_type_and_version(self, spec):
        payload = spec.to_json()
        assert list(payload)[:2] == ["type", "version"]
        assert payload["type"] == type(spec).TYPE
        assert payload["version"] == type(spec).SCHEMA_VERSION


class TestSpecStrictness:
    """Decoding is strict: a dropped field would change the job."""

    def test_extra_field_raises(self):
        payload = EvaluateJobSpec(system="pendulum", controller_dir="runs/p").to_json()
        payload["surprise"] = 1
        with pytest.raises(MessageValidationError) as excinfo:
            EvaluateJobSpec.from_json(payload)
        assert "unexpected field(s)" in str(excinfo.value)

    def test_semantic_checks(self):
        with pytest.raises(MessageValidationError):
            TrainJobSpec(system="")
        with pytest.raises(MessageValidationError):
            EvaluateJobSpec(system="pendulum", controller_dir="")
        with pytest.raises(MessageValidationError):
            EvaluateJobSpec(system="pendulum", controller_dir="x", perturbation="earthquake")
        with pytest.raises(MessageValidationError):
            EvaluateJobSpec(system="pendulum", controller_dir="x", samples=0)
        with pytest.raises(MessageValidationError):
            VerifySweepJobSpec(specs=())
        with pytest.raises(MessageValidationError):
            MatrixJobSpec(samples=0)
        with pytest.raises(MessageValidationError):
            MatrixJobSpec(perturbations=())

    # The two manifest checks below decode the way ``merge_matrix_run``
    # reads a sharded run's manifest back.

    def test_matrix_spec_rejects_unknown_perturbation(self):
        manifest = dict(matrix_manifest(MatrixJobSpec(samples=4)), perturbations=["attack", "bogus"])
        with pytest.raises(MessageValidationError) as excinfo:
            MatrixJobSpec.from_json(manifest)
        assert "'bogus'" in str(excinfo.value)

    @pytest.mark.parametrize("name", ["train_overrides", "verify_overrides"])
    def test_matrix_spec_rejects_null_overrides(self, name):
        manifest = dict(matrix_manifest(MatrixJobSpec(samples=4)), **{name: None})
        with pytest.raises(MessageValidationError, match=f"MatrixJobSpec.{name} must be an object"):
            MatrixJobSpec.from_json(manifest)


_MISTYPED = [
    (TrainJobSpec, dict(system=3), "TrainJobSpec.system must be a string"),
    (TrainJobSpec, dict(output=None), "TrainJobSpec.output must be a string"),
    (TrainJobSpec, dict(mixing_epochs="1"), "TrainJobSpec.mixing_epochs must be an integer"),
    (TrainJobSpec, dict(num_envs=2.0), "TrainJobSpec.num_envs must be an integer"),
    (TrainJobSpec, dict(eval_batch_size=True), "TrainJobSpec.eval_batch_size must be an integer"),
    (TrainJobSpec, dict(seed=1.5), "TrainJobSpec.seed must be an integer"),
    (EvaluateJobSpec, dict(controller_dir=["x"]), "EvaluateJobSpec.controller_dir must be a string"),
    (EvaluateJobSpec, dict(fraction="0.1"), "EvaluateJobSpec.fraction must be a number"),
    (EvaluateJobSpec, dict(samples=True), "EvaluateJobSpec.samples must be an integer"),
    (EvaluateJobSpec, dict(seed=None), "EvaluateJobSpec.seed must be an integer"),
    (VerifySweepJobSpec, dict(specs="a:b"), "VerifySweepJobSpec.specs must be a sequence"),
    (VerifySweepJobSpec, dict(specs=("a:b", 1)), "VerifySweepJobSpec.specs must be a string"),
    (VerifySweepJobSpec, dict(degree=2.5), "VerifySweepJobSpec.degree must be an integer"),
    (VerifySweepJobSpec, dict(work_budget="1"), "VerifySweepJobSpec.work_budget must be an integer"),
    (MatrixJobSpec, dict(scenarios="pendulum"), "MatrixJobSpec.scenarios must be a sequence"),
    (MatrixJobSpec, dict(perturbations=("none", 3)), "MatrixJobSpec.perturbations must be a string"),
    (MatrixJobSpec, dict(train=1), "MatrixJobSpec.train must be a boolean"),
    (MatrixJobSpec, dict(verify="yes"), "MatrixJobSpec.verify must be a boolean"),
    (MatrixJobSpec, dict(budget_scale=None), "MatrixJobSpec.budget_scale must be a number"),
]

#: Smallest valid constructor arguments of each spec kind.
_VALID = {
    TrainJobSpec: dict(system="pendulum"),
    EvaluateJobSpec: dict(system="pendulum", controller_dir="runs/p"),
    VerifySweepJobSpec: dict(specs=("pendulum:runs/p",)),
    MatrixJobSpec: dict(samples=4),
}


class TestFieldTyping:
    """Each field is checked against its annotation on construction and decode."""

    @pytest.mark.parametrize(
        "cls, bad, message", _MISTYPED,
        ids=[f"{cls.__name__}.{next(iter(bad))}-{type(next(iter(bad.values()))).__name__}"
             for cls, bad, _ in _MISTYPED],
    )
    def test_mistyped_field_is_named(self, cls, bad, message):
        with pytest.raises(MessageValidationError, match=message):
            cls(**dict(_VALID[cls], **bad))
        payload = dict(cls(**_VALID[cls]).to_json(), **bad)
        with pytest.raises(MessageValidationError, match=message):
            cls.from_json(payload)

    @pytest.mark.parametrize(
        "cls, name",
        [
            (EvaluateJobSpec, "fraction"),
            (VerifySweepJobSpec, "target_error"),
            (VerifySweepJobSpec, "reach_box_scale"),
            (MatrixJobSpec, "fraction"),
            (MatrixJobSpec, "budget_scale"),
        ],
    )
    def test_integer_spelling_of_a_float_field_has_the_float_bytes(self, cls, name):
        """``1`` and ``1.0`` describe one job, so they serialise (and digest) alike."""

        as_int = cls(**dict(_VALID[cls], **{name: 1}))
        as_float = cls(**dict(_VALID[cls], **{name: 1.0}))
        assert type(getattr(as_int, name)) is float
        assert as_int.to_line() == as_float.to_line()


class TestSpecsAreFrozen:
    @pytest.mark.parametrize("cls", list(_VALID), ids=lambda cls: cls.__name__)
    def test_fields_cannot_be_reassigned(self, cls):
        """A spec is a job's identity; mutating one after validation is refused."""

        from dataclasses import FrozenInstanceError

        spec = cls(**_VALID[cls])
        name, value = next(iter(_VALID[cls].items()))
        with pytest.raises(FrozenInstanceError):
            setattr(spec, name, value)
        assert cls.from_json(spec.to_json()) == spec


class TestEngineFieldRetired:
    """Schema v2 of the verify-sweep and matrix specs has no ``engine``."""

    @pytest.mark.parametrize("spec", [VerifySweepJobSpec(specs=("a:b",)), MatrixJobSpec(samples=4)])
    def test_payload_with_engine_is_refused(self, spec):
        with pytest.raises(MessageValidationError) as excinfo:
            type(spec).from_json(dict(spec.to_json(), engine="batched"))
        assert "'engine'" in str(excinfo.value)


class TestTimeBudgetFieldRetired:
    """Schema v4 of the verify-sweep spec has no wall-clock ``time_budget``."""

    def test_v3_payload_with_time_budget_is_refused(self):
        payload = dict(VerifySweepJobSpec(specs=("a:b",)).to_json(), version=3, time_budget=0.0)
        with pytest.raises(MessageValidationError) as excinfo:
            VerifySweepJobSpec.from_json(payload)
        assert "'time_budget'" in str(excinfo.value)


class TestVerifySweepBudgetsOptional:
    """Schema v3 of the verify-sweep spec: ``None`` budgets mean the hints."""

    def test_budgets_default_to_none_and_round_trip(self):
        spec = VerifySweepJobSpec(specs=("a:b",))
        assert (spec.target_error, spec.degree, spec.max_partitions) == (None, None, None)
        assert (spec.reach_steps, spec.reach_box_scale) == (None, None)
        assert VerifySweepJobSpec.from_json(spec.to_json()) == spec


class TestGoldenWireLog:
    """The exact bytes of three spec kinds; changing them is a schema act.

    The matrix spec's bytes are pinned through its manifest's sha256 in
    ``tests/test_matrix_shard.py``.
    """

    def test_wire_bytes_are_pinned(self):
        messages = [
            TrainJobSpec(system="pendulum", output="runs/p", mixing_epochs=1, seed=3),
            EvaluateJobSpec(system="pendulum", controller_dir="runs/p", samples=8),
            VerifySweepJobSpec(specs=("pendulum:runs/p",), degree=2),
        ]
        expected = (
            '{"type":"train","version":1,"system":"pendulum","output":"runs/p",'
            '"mixing_epochs":1,"mixing_steps":null,"distill_epochs":null,'
            '"dataset_size":null,"eval_samples":null,"num_envs":null,'
            '"train_batch_size":null,"eval_batch_size":0,"seed":3}\n'
            '{"type":"evaluate","version":1,"system":"pendulum",'
            '"controller_dir":"runs/p","controller":"kappa_star",'
            '"perturbation":"none","fraction":0.1,"samples":8,"batch_size":0,"seed":0}\n'
            '{"type":"verify-sweep","version":4,"specs":["pendulum:runs/p"],'
            '"target_error":null,"degree":2,"max_partitions":null,"reach_steps":null,'
            '"reach_box_scale":null,"invariant_grid":0,"work_budget":0,"jobs":0}\n'
        )
        log = "".join(message.to_line() + "\n" for message in messages)
        assert log.encode("utf-8") == expected.encode("utf-8")
