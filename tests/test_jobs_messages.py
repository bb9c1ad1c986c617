"""Typed job-service messages: registries, round-trip, tolerance, golden log.

Mirrors ``tests/test_telemetry_events.py`` for the two new message
families (see ``docs/service.md``):

* every job spec and API message round-trips ``to_line`` -> parse exactly
  (Hypothesis property over arbitrary field values);
* both registries are pinned -- adding, removing or renaming a wire type
  is a deliberate, test-visible act;
* job-spec parsing is strict in BOTH directions (an unknown kind or a
  newer version is an error: silently dropping a field would change the
  job's digest and break single-flight dedupe), while the API envelope is
  forward tolerant like telemetry;
* the wire bytes are pinned by a golden log so an old daemon and a new
  client literally share bytes.
"""

import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs.messages import (
    API_REGISTRY,
    JOB_REGISTRY,
    JOB_STATES,
    CancelJob,
    ErrorReply,
    EvaluateJobSpec,
    JobEvents,
    JobEventsReply,
    JobList,
    JobReply,
    JobStatus,
    JobView,
    ListJobs,
    MatrixJobSpec,
    ServerStatus,
    ServerStatusReply,
    Shutdown,
    ShutdownReply,
    SubmitJob,
    TrainJobSpec,
    UnknownMessage,
    VerifySweepJobSpec,
    build_job_spec,
    parse_api_message,
    parse_job_spec,
)
from repro.utils.messages import MessageValidationError

# -- strategies --------------------------------------------------------

_name = st.text(alphabet=string.ascii_lowercase + string.digits + "-_?=.", min_size=1, max_size=12)
_count = st.integers(min_value=0, max_value=10**9)
_positive = st.integers(min_value=1, max_value=10**6)
_budget = st.none() | st.integers(min_value=1, max_value=10**6)
_fraction = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_unix = st.floats(min_value=0.0, max_value=2.0e9, allow_nan=False, allow_infinity=False)
_perturbation = st.sampled_from(["none", "attack", "noise"])
_state = st.sampled_from(JOB_STATES)
_json_dict = st.dictionaries(_name, st.integers(min_value=0, max_value=99) | _name, max_size=3)
_nonempty_dict = st.dictionaries(_name, _name, min_size=1, max_size=3)

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
        time_budget=_unix,
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

API_STRATEGIES = {
    SubmitJob: st.builds(SubmitJob, spec=_nonempty_dict, force=st.booleans()),
    JobStatus: st.builds(JobStatus, job_id=_name),
    CancelJob: st.builds(CancelJob, job_id=_name),
    ListJobs: st.builds(ListJobs, state=st.none() | _state),
    JobEvents: st.builds(JobEvents, job_id=_name, cursor=_json_dict),
    ServerStatus: st.builds(ServerStatus),
    Shutdown: st.builds(Shutdown),
    JobView: st.builds(
        JobView,
        job_id=_name,
        kind=_name,
        digest=_name,
        state=_state,
        submitted_unix=_unix,
        started_unix=_unix,
        finished_unix=_unix,
        error=st.just("") | _name,
        attached_to=st.just("") | _name,
        spec=_json_dict,
    ),
    JobReply: st.builds(JobReply, job=_nonempty_dict, result=_json_dict),
    JobList: st.builds(JobList, jobs=st.lists(_nonempty_dict, max_size=3).map(tuple)),
    JobEventsReply: st.builds(
        JobEventsReply,
        job_id=_name,
        lines=st.lists(_name, max_size=3).map(tuple),
        cursor=_json_dict,
        done=st.booleans(),
    ),
    ServerStatusReply: st.builds(
        ServerStatusReply,
        pid=_count,
        run_dir=_name,
        workers=_count,
        started_unix=_unix,
        jobs=_json_dict,
    ),
    ShutdownReply: st.builds(ShutdownReply, stopping=st.booleans()),
    ErrorReply: st.builds(
        ErrorReply,
        error=_name,
        code=st.sampled_from(
            ["bad-request", "bad-spec", "unknown-job", "conflict", "shutting-down", "internal"]
        ),
    ),
}

_any_spec = st.one_of(*SPEC_STRATEGIES.values())
_any_api = st.one_of(*API_STRATEGIES.values())


class TestRegistries:
    def test_every_spec_class_is_registered(self):
        assert set(JOB_REGISTRY.values()) == set(SPEC_STRATEGIES)

    def test_every_api_class_is_registered(self):
        assert set(API_REGISTRY.values()) == set(API_STRATEGIES)

    def test_job_kinds_are_pinned(self):
        assert sorted(JOB_REGISTRY) == ["evaluate", "matrix", "train", "verify-sweep"]

    def test_api_wire_names_are_pinned(self):
        assert sorted(API_REGISTRY) == [
            "cancel-job",
            "error",
            "job-events",
            "job-events-reply",
            "job-list",
            "job-reply",
            "job-status",
            "job-view",
            "list-jobs",
            "server-status",
            "server-status-reply",
            "shutdown",
            "shutdown-reply",
            "submit-job",
        ]

    def test_unknown_message_is_not_registered(self):
        assert UnknownMessage.TYPE not in API_REGISTRY
        assert UnknownMessage.TYPE not in JOB_REGISTRY


class TestRoundTrip:
    @settings(max_examples=60)
    @given(spec=_any_spec)
    def test_spec_round_trips_exactly(self, spec):
        assert parse_job_spec(json.loads(spec.to_line())) == spec

    @settings(max_examples=60)
    @given(message=_any_api)
    def test_api_message_round_trips_exactly(self, message):
        assert parse_api_message(json.loads(message.to_line())) == message

    @settings(max_examples=20)
    @given(message=st.one_of(_any_spec, _any_api))
    def test_payload_leads_with_type_and_version(self, message):
        payload = message.to_json()
        assert list(payload)[:2] == ["type", "version"]
        assert payload["type"] == type(message).TYPE
        assert payload["version"] == type(message).SCHEMA_VERSION


class TestSpecStrictness:
    """Spec parsing is strict both ways: a dropped field would change the digest."""

    def _payload(self):
        return EvaluateJobSpec(system="pendulum", controller_dir="runs/p").to_json()

    def test_unknown_kind_raises_with_catalog(self):
        with pytest.raises(MessageValidationError) as excinfo:
            parse_job_spec({"type": "bake-bread", "version": 1})
        assert "unknown job kind 'bake-bread'" in str(excinfo.value)
        assert "evaluate" in str(excinfo.value)

    def test_newer_version_raises_instead_of_degrading(self):
        payload = self._payload()
        payload["version"] = EvaluateJobSpec.SCHEMA_VERSION + 1
        with pytest.raises(MessageValidationError) as excinfo:
            parse_job_spec(payload)
        assert "newer than this service supports" in str(excinfo.value)

    def test_unreadable_version_raises(self):
        payload = self._payload()
        for version in ("two", None, 0, True):
            with pytest.raises(MessageValidationError):
                parse_job_spec(dict(payload, version=version))

    def test_extra_field_raises(self):
        payload = self._payload()
        payload["surprise"] = 1
        with pytest.raises(MessageValidationError) as excinfo:
            parse_job_spec(payload)
        assert "unexpected field(s)" in str(excinfo.value)

    def test_non_object_payload_raises(self):
        with pytest.raises(MessageValidationError):
            parse_job_spec([1, 2, 3])

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

    def test_matrix_spec_rejects_unknown_perturbation(self):
        payload = MatrixJobSpec(samples=4).to_json()
        payload["perturbations"] = ["attack", "bogus"]
        with pytest.raises(MessageValidationError) as excinfo:
            parse_job_spec(payload)
        assert "'bogus'" in str(excinfo.value)

    @pytest.mark.parametrize("name", ["train_overrides", "verify_overrides"])
    def test_matrix_spec_rejects_null_overrides(self, name):
        payload = dict(MatrixJobSpec(samples=4).to_json(), **{name: None})
        with pytest.raises(MessageValidationError, match=f"MatrixJobSpec.{name} must be an object"):
            parse_job_spec(payload)


class TestEngineFieldRetired:
    """Schema v2 of the verify-sweep and matrix specs has no ``engine``."""

    @pytest.mark.parametrize("spec", [VerifySweepJobSpec(specs=("a:b",)), MatrixJobSpec(samples=4)])
    def test_v1_payload_with_engine_is_refused(self, spec):
        payload = dict(spec.to_json(), version=1, engine="batched")
        with pytest.raises(MessageValidationError) as excinfo:
            parse_job_spec(payload)
        assert "'engine'" in str(excinfo.value)

    @pytest.mark.parametrize("spec", [VerifySweepJobSpec(specs=("a:b",)), MatrixJobSpec(samples=4)])
    def test_v1_payload_without_engine_decodes(self, spec):
        # verify-sweep is at v3: its analysis budgets became optional.
        assert type(spec).SCHEMA_VERSION == {VerifySweepJobSpec: 3, MatrixJobSpec: 2}[type(spec)]
        assert parse_job_spec(dict(spec.to_json(), version=1)) == spec


class TestVerifySweepBudgetsOptional:
    """Schema v3 of the verify-sweep spec: ``None`` budgets mean the hints."""

    def test_budgets_default_to_none_and_round_trip(self):
        spec = VerifySweepJobSpec(specs=("a:b",))
        assert (spec.target_error, spec.degree, spec.max_partitions) == (None, None, None)
        assert (spec.reach_steps, spec.reach_box_scale) == (None, None)
        assert parse_job_spec(spec.to_json()) == spec

    def test_v2_payload_with_explicit_budgets_decodes(self):
        payload = {
            "type": "verify-sweep", "version": 2, "specs": ["a:b"], "target_error": 0.5,
            "degree": 3, "max_partitions": 2048, "reach_steps": 15, "reach_box_scale": 0.1,
            "invariant_grid": 0, "work_budget": 0, "time_budget": 0.0, "jobs": 0,
        }
        spec = parse_job_spec(payload)
        assert (spec.degree, spec.max_partitions, spec.reach_steps) == (3, 2048, 15)


class TestApiTolerance:
    """The RPC envelope is forward tolerant, exactly like telemetry."""

    def test_newer_version_decodes_known_fields(self):
        payload = JobStatus(job_id="j1-abc").to_json()
        payload["version"] = JobStatus.SCHEMA_VERSION + 2
        payload["brand_new_field"] = {"nested": True}
        message = parse_api_message(payload)
        assert isinstance(message, JobStatus)
        assert message.job_id == "j1-abc"

    def test_unknown_type_wraps_with_payload_preserved(self):
        payload = {"type": "start-reactor", "version": 3, "rods": 7}
        message = parse_api_message(payload)
        assert isinstance(message, UnknownMessage)
        assert message.type_name == "start-reactor"
        assert message.version == 3
        assert message.payload == payload

    def test_same_version_extra_field_is_strict(self):
        payload = JobStatus(job_id="j1").to_json()
        payload["surprise"] = 1
        with pytest.raises(MessageValidationError):
            JobStatus.from_json(payload)

    def test_reply_views_revalidate(self):
        view = JobView(job_id="j1", kind="train", digest="d", state="done")
        reply = JobReply(job=view.to_json(), result={"ok": 1})
        assert reply.view() == view
        listing = JobList(jobs=(view.to_json(),))
        assert listing.views() == (view,)

    def test_job_view_rejects_invented_states(self):
        with pytest.raises(MessageValidationError):
            JobView(job_id="j1", state="meditating")
        with pytest.raises(MessageValidationError):
            ListJobs(state="meditating")


class TestGoldenWireLog:
    """The exact bytes of one of each message; changing them is a schema act."""

    def test_wire_bytes_are_pinned(self):
        messages = [
            TrainJobSpec(system="pendulum", output="runs/p", mixing_epochs=1, seed=3),
            EvaluateJobSpec(system="pendulum", controller_dir="runs/p", samples=8),
            VerifySweepJobSpec(specs=("pendulum:runs/p",), degree=2),
            SubmitJob(spec={"type": "evaluate", "version": 1}, force=True),
            JobStatus(job_id="j1-abcd1234"),
            ListJobs(state="running"),
            JobEvents(job_id="j1-abcd1234", cursor={"offset": 10}),
            ErrorReply(error="unknown job id 'j9'", code="unknown-job"),
            ShutdownReply(),
        ]
        expected = (
            '{"type":"train","version":1,"system":"pendulum","output":"runs/p",'
            '"mixing_epochs":1,"mixing_steps":null,"distill_epochs":null,'
            '"dataset_size":null,"eval_samples":null,"num_envs":null,'
            '"train_batch_size":null,"eval_batch_size":0,"seed":3}\n'
            '{"type":"evaluate","version":1,"system":"pendulum",'
            '"controller_dir":"runs/p","controller":"kappa_star",'
            '"perturbation":"none","fraction":0.1,"samples":8,"batch_size":0,"seed":0}\n'
            '{"type":"verify-sweep","version":3,"specs":["pendulum:runs/p"],'
            '"target_error":null,"degree":2,"max_partitions":null,"reach_steps":null,'
            '"reach_box_scale":null,"invariant_grid":0,"work_budget":0,'
            '"time_budget":0.0,"jobs":0}\n'
            '{"type":"submit-job","version":1,'
            '"spec":{"type":"evaluate","version":1},"force":true}\n'
            '{"type":"job-status","version":1,"job_id":"j1-abcd1234"}\n'
            '{"type":"list-jobs","version":1,"state":"running"}\n'
            '{"type":"job-events","version":1,"job_id":"j1-abcd1234",'
            '"cursor":{"offset":10}}\n'
            '{"type":"error","version":1,"error":"unknown job id \'j9\'",'
            '"code":"unknown-job"}\n'
            '{"type":"shutdown-reply","version":1,"stopping":true}\n'
        )
        log = "".join(message.to_line() + "\n" for message in messages)
        assert log.encode("utf-8") == expected.encode("utf-8")


class TestBuildJobSpec:
    """``repro submit KIND --set KEY=VALUE`` field coercion."""

    def test_coerces_by_declared_type(self):
        spec = build_job_spec(
            "matrix",
            [
                "scenarios=pendulum,cartpole",
                "samples=4",
                "fraction=0.25",
                "train=false",
                "verify=no",
                "budget-scale=0.5",
                'train_overrides={"mixing_epochs": 1}',
            ],
        )
        assert spec == MatrixJobSpec(
            scenarios=("pendulum", "cartpole"),
            samples=4,
            fraction=0.25,
            train=False,
            verify=False,
            budget_scale=0.5,
            train_overrides={"mixing_epochs": 1},
        )

    def test_optional_budgets_accept_none(self):
        spec = build_job_spec("train", ["system=pendulum", "mixing_epochs=3", "dataset_size=none"])
        assert spec.mixing_epochs == 3
        assert spec.dataset_size is None

    def test_unknown_kind_and_field_name_the_alternatives(self):
        with pytest.raises(MessageValidationError) as excinfo:
            build_job_spec("bake-bread")
        assert "known kinds" in str(excinfo.value)
        with pytest.raises(MessageValidationError) as excinfo:
            build_job_spec("evaluate", ["flavor=mint"])
        assert "has no field 'flavor'" in str(excinfo.value)
        assert "controller_dir" in str(excinfo.value)

    def test_malformed_assignments_raise(self):
        with pytest.raises(MessageValidationError) as excinfo:
            build_job_spec("evaluate", ["samples"])
        assert "expected KEY=VALUE" in str(excinfo.value)
        with pytest.raises(MessageValidationError):
            build_job_spec("evaluate", ["samples=many"])
        with pytest.raises(MessageValidationError):
            build_job_spec("matrix", ["train=perhaps"])
        with pytest.raises(MessageValidationError):
            build_job_spec("matrix", ["train_overrides={broken"])
        with pytest.raises(MessageValidationError):
            build_job_spec("matrix", ["train_overrides=[1,2]"])

    def test_dash_aliases_underscore(self):
        spec = build_job_spec("evaluate", ["controller-dir=runs/p", "system=pendulum"])
        assert spec.controller_dir == "runs/p"
