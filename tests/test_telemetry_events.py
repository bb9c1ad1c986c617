"""Typed telemetry events: registry, validation, round-trip, tolerance.

The wire contract under test (see ``docs/telemetry.md``):

* every event class round-trips ``to_line`` -> ``decode_line`` *exactly*
  (Hypothesis property over arbitrary field values);
* same-version decodes are strict -- extra, missing or mistyped fields
  raise :class:`EventValidationError`;
* newer-version payloads decode best-effort from the known fields, and
  unknown types wrap as :class:`UnknownEvent` -- an old reader keeps
  working against a newer fleet.
"""

import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.events import (
    CELL_KINDS,
    EVENT_REGISTRY,
    CellCached,
    CellFinished,
    CellStarted,
    EventValidationError,
    RunFinished,
    RunStarted,
    StageTiming,
    SweepJobFinished,
    UnknownEvent,
    decode_line,
    parse_event,
)

# -- strategies --------------------------------------------------------

_name = st.text(alphabet=string.ascii_lowercase + string.digits + "-_?=.", max_size=12)
_ts = st.floats(min_value=0.0, max_value=2.0e9, allow_nan=False, allow_infinity=False)
_seconds = st.floats(min_value=0.0, max_value=1.0e6, allow_nan=False, allow_infinity=False)
_count = st.integers(min_value=0, max_value=10**9)
_kind = st.sampled_from(CELL_KINDS)
_perturbation = st.none() | st.sampled_from(["none", "attack", "noise"])
_base = dict(ts=_ts, shard=_name)
_cell_fields = dict(scenario=_name, controller=_name, cell=_kind, perturbation=_perturbation)


@st.composite
def _run_started(draw):
    total = draw(_count)
    return RunStarted(
        ts=draw(_ts),
        shard=draw(_name),
        scenarios=tuple(draw(st.lists(_name, max_size=4))),
        cells_total=total,
        cells_owned=draw(st.integers(min_value=0, max_value=total)),
        pid=draw(_count),
    )


EVENT_STRATEGIES = {
    RunStarted: _run_started(),
    CellStarted: st.builds(CellStarted, **_base, **_cell_fields),
    CellFinished: st.builds(
        CellFinished,
        **_base,
        **_cell_fields,
        seconds=_seconds,
        status=_name,
        safe_rate=st.none() | st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    CellCached: st.builds(CellCached, **_base, **_cell_fields),
    SweepJobFinished: st.builds(
        SweepJobFinished,
        **_base,
        job=_name,
        system=_name,
        status=_name,
        seconds=_seconds,
        cached=st.booleans(),
        verified=st.booleans(),
    ),
    StageTiming: st.builds(
        StageTiming, **_base, scenario=_name, stage=st.just("mixing"), seconds=_seconds
    ),
    RunFinished: st.builds(
        RunFinished,
        **_base,
        status=_name,
        cells_computed=_count,
        cells_cached=_count,
        cells_stolen=_count,
        cells_skipped=_count,
        rows=_count,
        seconds=_seconds,
    ),
}

_any_event = st.one_of(*EVENT_STRATEGIES.values())


class TestRegistry:
    def test_every_event_class_is_registered(self):
        assert set(EVENT_REGISTRY.values()) == set(EVENT_STRATEGIES)

    def test_wire_names_are_unique_and_stable(self):
        assert sorted(EVENT_REGISTRY) == [
            "cell-cached",
            "cell-finished",
            "cell-started",
            "run-finished",
            "run-started",
            "stage-timing",
            "sweep-job-finished",
        ]

    def test_unknown_event_is_not_registered(self):
        assert UnknownEvent.TYPE not in EVENT_REGISTRY


class TestRoundTrip:
    @settings(max_examples=60)
    @given(event=_any_event)
    def test_to_line_decode_line_round_trips_exactly(self, event):
        assert decode_line(event.to_line()) == event
        assert decode_line(event.to_line().encode("utf-8")) == event

    @settings(max_examples=60)
    @given(event=_any_event)
    def test_parse_event_round_trips_the_payload(self, event):
        assert parse_event(json.loads(event.to_line())) == event

    @given(event=_any_event)
    @settings(max_examples=20)
    def test_payload_leads_with_type_and_version(self, event):
        payload = event.to_json()
        assert list(payload)[:2] == ["type", "version"]
        assert payload["type"] == type(event).TYPE
        assert payload["version"] == type(event).SCHEMA_VERSION


class TestForwardTolerance:
    def _payload(self):
        return CellFinished(
            ts=1.5, shard="main", scenario="pendulum", controller="kappa1", seconds=0.25
        ).to_json()

    def test_newer_version_decodes_known_fields(self):
        payload = self._payload()
        payload["version"] = CellFinished.SCHEMA_VERSION + 3
        payload["brand_new_field"] = {"nested": True}
        event = parse_event(payload)
        assert isinstance(event, CellFinished)
        assert event.scenario == "pendulum"
        assert event.seconds == 0.25

    def test_newer_version_missing_required_fields_wraps_unknown(self):
        payload = self._payload()
        payload["version"] = CellFinished.SCHEMA_VERSION + 1
        del payload["ts"]
        event = parse_event(payload)
        assert isinstance(event, UnknownEvent)

    def test_unknown_type_wraps_with_payload_preserved(self):
        payload = {"type": "laser-status", "version": 2, "ts": 9.0, "shard": "s", "watts": 3}
        event = parse_event(payload)
        assert isinstance(event, UnknownEvent)
        assert event.type_name == "laser-status"
        assert event.version == 2
        assert event.ts == 9.0
        assert event.shard == "s"
        assert event.payload == payload

    def test_unreadable_version_wraps_unknown(self):
        payload = self._payload()
        for version in ("two", None, 0, True):
            mangled = dict(payload, version=version)
            assert isinstance(parse_event(mangled), UnknownEvent)

    def test_same_version_extra_field_is_strict(self):
        payload = self._payload()
        payload["surprise"] = 1
        with pytest.raises(EventValidationError):
            CellFinished.from_json(payload)

    def test_same_version_missing_required_field_is_strict(self):
        payload = RunStarted(ts=0.0, shard="main").to_json()
        del payload["ts"]
        with pytest.raises(EventValidationError):
            RunStarted.from_json(payload)


class TestValidation:
    def test_mistyped_fields_raise(self):
        with pytest.raises(EventValidationError):
            CellFinished(ts="soon", shard="main")
        with pytest.raises(EventValidationError):
            CellFinished(ts=0.0, shard=7)
        with pytest.raises(EventValidationError):
            CellCached(ts=0.0, shard="main", perturbation=3)
        with pytest.raises(EventValidationError):
            RunFinished(ts=0.0, shard="main", cells_computed=1.5)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(EventValidationError):
            RunFinished(ts=0.0, shard="main", cells_computed=True)

    def test_int_promotes_to_float(self):
        event = CellFinished(ts=3, shard="main", seconds=2)
        assert event.ts == 3.0 and isinstance(event.ts, float)
        assert event.seconds == 2.0 and isinstance(event.seconds, float)

    def test_semantic_checks(self):
        with pytest.raises(EventValidationError):
            RunStarted(ts=0.0, shard="main", cells_total=2, cells_owned=3)
        with pytest.raises(EventValidationError):
            CellFinished(ts=0.0, shard="main", seconds=-1.0)
        with pytest.raises(EventValidationError):
            CellFinished(ts=0.0, shard="main", safe_rate=1.5)
        with pytest.raises(EventValidationError):
            CellStarted(ts=0.0, shard="main", cell="dance")
        with pytest.raises(EventValidationError):
            StageTiming(ts=0.0, shard="main", stage="")
        with pytest.raises(EventValidationError):
            RunFinished(ts=0.0, shard="main", rows=-1)

    def test_scenarios_list_coerces_to_tuple(self):
        event = RunStarted(ts=0.0, shard="main", scenarios=["a", "b"], cells_total=1, cells_owned=1)
        assert event.scenarios == ("a", "b")


class TestDecodeLine:
    def test_torn_and_garbage_lines_return_none(self):
        assert decode_line("") is None
        assert decode_line("   \n") is None
        assert decode_line('{"type": "cell-cach') is None  # torn mid-append
        assert decode_line("not json at all") is None
        assert decode_line("[1, 2, 3]") is None  # JSON but not an object
        assert decode_line(b"\xff\xfe\x00garbage") is None

    def test_validation_failure_wraps_instead_of_crashing(self):
        line = '{"type": "cell-finished", "version": 1, "ts": 0.0, "shard": "m", "seconds": -4}'
        event = decode_line(line)
        assert isinstance(event, UnknownEvent)
        assert event.type_name == "cell-finished"
