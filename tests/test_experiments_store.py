"""Tests for the digest-keyed run store, plus the end-to-end golden pack.

The unit half exercises :class:`repro.experiments.RunStore` directly
(save/load round-trips, artefact round-trips, atomicity, listing, gc).  The
``scenario_smoke``-marked half is the repo's golden regression: for every
registered scenario one tiny train -> save -> evaluate -> verify cell whose
``record.json`` (minus timestamps) is byte-for-byte stable across two runs
in the same process -- pinning both training determinism and the digest
canonicalisation that stamps each record.
"""

import json

import numpy as np
import pytest

from repro.experiments import RunStore, config_digest

TINY_HINTS = dict(
    mixing_epochs=1,
    mixing_steps=64,
    distill_epochs=2,
    dataset_size=64,
    eval_samples=8,
)
TINY_VERIFY = dict(target_error=1.0, degree=2, max_partitions=64, reach_steps=2)


class TestRunKey:
    def test_key_is_stage_plus_config_digest(self, tmp_path):
        store = RunStore(tmp_path)
        key = store.key("evaluate", {"b": 2, "a": 1})
        assert key.stage == "evaluate"
        assert key.config == {"a": 1, "b": 2}
        assert key.digest == store.key("evaluate", {"a": 1, "b": 2}).digest
        assert key.digest != store.key("train", {"a": 1, "b": 2}).digest

    def test_bad_stage_names_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                store.key(bad, {})


class TestSaveAndLoad:
    def test_save_then_load_round_trips_canonical_json(self, tmp_path):
        store = RunStore(tmp_path)
        key = store.key("evaluate", {"cell": 1})
        assert not store.contains(key)
        store.save(key, {"safe_rate": 1.0, "samples": np.int64(8)})
        assert store.contains(key)
        assert store.load_result(key) == {"safe_rate": 1.0, "samples": 8}

    def test_save_replaces_an_existing_entry(self, tmp_path):
        store = RunStore(tmp_path)
        key = store.key("evaluate", {"cell": 1})
        store.save(key, {"value": 1})
        store.save(key, {"value": 2})
        assert store.load_result(key) == {"value": 2}
        assert len(store.entries()) == 1

    def test_network_artefacts_round_trip_bit_identically(self, tmp_path):
        from repro.nn import MLP

        store = RunStore(tmp_path)
        key = store.key("train", {"seed": 0})
        network = MLP(2, 1, hidden_sizes=(4,))
        store.save(key, {"trained": True}, networks={"kappa_star": network})
        reloaded = store.load_network(key, "kappa_star")
        for name, value in network.state_dict().items():
            np.testing.assert_array_equal(reloaded.state_dict()[name], value)

    def test_failed_save_leaves_no_entry(self, tmp_path):
        store = RunStore(tmp_path)
        key = store.key("evaluate", {"cell": 1})
        with pytest.raises(FileNotFoundError):
            store.save(key, {"value": 1}, files={"record.json": tmp_path / "missing.json"})
        assert not store.contains(key)
        assert store.entries() == []
        assert list((store.root / "evaluate").iterdir()) == []

    def test_interrupted_save_is_invisible_and_collectable(self, tmp_path):
        # Simulate a crash between artefact writes and completion: a stray
        # staging directory must not count as an entry and gc sweeps it.
        store = RunStore(tmp_path)
        key = store.key("evaluate", {"cell": 1})
        staging = store.root / "evaluate" / ".tmp-deadbeef-0"
        staging.mkdir(parents=True)
        (staging / "partial.json").write_text("{}")
        assert not store.contains(key)
        assert store.entries() == []
        incomplete, removed = store.gc()
        assert [p.name for p in incomplete] == [".tmp-deadbeef-0"]
        assert removed == []
        assert not staging.exists()

    def test_concurrent_saves_of_one_key_all_succeed(self, tmp_path):
        # A forced rerun can finish beside its primary: two processes then
        # publish the same key at once.  Every save must succeed, one
        # complete entry must remain and no staging directory may be left.
        import multiprocessing

        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        rounds = 60

        def publish(writer):
            store = RunStore(tmp_path)
            key = store.key("evaluate", {"cell": 1})
            for round_index in range(rounds):
                barrier.wait(timeout=10)
                store.save(key, {"writer": writer, "round": round_index})

        writers = [context.Process(target=publish, args=(writer,)) for writer in range(2)]
        for process in writers:
            process.start()
        for process in writers:
            process.join(60)
        assert [process.exitcode for process in writers] == [0, 0]
        store = RunStore(tmp_path)
        key = store.key("evaluate", {"cell": 1})
        assert store.load_result(key)["round"] == rounds - 1
        assert [entry.name for entry in (store.root / "evaluate").iterdir()] == [key.digest]


class TestInspection:
    @pytest.fixture
    def populated(self, tmp_path):
        store = RunStore(tmp_path)
        store.save(store.key("train", {"seed": 0}), {"ok": 1})
        store.save(store.key("evaluate", {"cell": 1}), {"ok": 2})
        store.save(store.key("evaluate", {"cell": 2}), {"ok": 3})
        return store

    def test_entries_and_stage_filter(self, populated):
        assert len(populated.entries()) == 3
        evaluate = populated.entries(stage="evaluate")
        assert len(evaluate) == 2
        for entry in evaluate:
            assert entry["stage"] == "evaluate"
            assert "result.json" in entry["files"]
            assert entry["bytes"] > 0

    def test_find_by_prefix(self, populated):
        digest = populated.key("train", {"seed": 0}).digest
        assert [e["digest"] for e in populated.find(digest[:12])] == [digest]
        assert populated.find("ffffffffffff") == []

    def test_gc_whole_stage(self, populated):
        incomplete, removed = populated.gc(stages=["evaluate"], dry_run=True)
        assert incomplete == [] and len(removed) == 2
        assert len(populated.entries()) == 3  # dry run touched nothing
        populated.gc(stages=["evaluate"])
        assert [e["stage"] for e in populated.entries()] == ["train"]


def _golden_cell(name, directory, seed=0):
    """One tiny train -> save -> evaluate -> verify cell for ``name``."""

    from repro.core.cocktail import CocktailPipeline
    from repro.core.config import CocktailConfig
    from repro.metrics.robustness import evaluate_robustness
    from repro.scenarios import resolve_scenario
    from repro.utils.persistence import save_cocktail_result
    from repro.utils.seeding import set_global_seed
    from repro.verification.verifier import verify_controller

    spec, overrides = resolve_scenario(name)
    system = spec.make_system(**overrides)
    experts = spec.make_experts(system)
    set_global_seed(seed)
    config = CocktailConfig.from_budget_hints(TINY_HINTS, seed=seed)
    result = CocktailPipeline(system, experts, config).run(include_direct_baseline=False)

    outcome = evaluate_robustness(
        system, result.student, perturbation="none", fraction=0.1, samples=4, rng=seed
    )
    report = verify_controller(
        system,
        result.student.network,
        name="kappa_star",
        reach_initial_box=system.initial_set.scale(0.1),
        **TINY_VERIFY,
    )
    summary = {
        key: value
        for key, value in report.summary().items()
        if not key.endswith("_seconds") and key != "total_seconds"
    }
    record = {
        "system": name,
        "evaluate": {"safe_rate": outcome.safe_rate, "mean_energy": outcome.mean_energy},
        "verify": summary,
    }
    save_cocktail_result(result, directory, record=record, context={"system": spec.name, "seed": seed})
    return directory / "record.json"


def _stable_bytes(path):
    """The record's bytes with the (only) timestamp field removed."""

    payload = json.loads(path.read_text())
    payload.pop("created_unix", None)
    return json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")


@pytest.mark.scenario_smoke
def test_every_scenario_record_is_byte_stable(tmp_path):
    from repro.scenarios import list_scenarios

    names = list_scenarios()
    assert len(names) >= 5
    for name in names:
        first = _golden_cell(name, tmp_path / f"{name}-1")
        second = _golden_cell(name, tmp_path / f"{name}-2")
        record = json.loads(first.read_text())
        # The record carries its identity: the full resolved config and the
        # canonical digest over {config, context}.
        assert record["config"]["mixing"]["epochs"] == TINY_HINTS["mixing_epochs"]
        assert record["digest"] == config_digest(
            {"config": record["config"], "context": record["context"]}
        )
        assert "created_unix" in record
        assert _stable_bytes(first) == _stable_bytes(second), f"{name} record drifted"
