"""Span tracing around the program's layer entry points, for the traced run.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces each entry point under every name a caller looks it up by (the
defining module and each ``repro`` module that imported it by name, or the
class attribute for a method), and ``uninstall`` restores the originals.
Spans (name, start, end, parent, op id, thread) stay in memory; the
benchmark writes them out when it ends.  A layer's self time is its span's
duration minus the duration of its child spans.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


@dataclass(frozen=True)
class Layer:
    """One traced entry point.

    Its metrics are ``<name>_s`` (self seconds), ``<name>_calls`` when
    ``calls`` is set, and ``<name>.<key>`` for each ``(key, hook)`` of
    ``counts`` (summed) and ``peaks`` (maximum); a hook maps the call's
    ``(args, result)`` to a number.
    """

    name: str
    module: str
    targets: Tuple[str, ...]
    calls: bool = True
    counts: Tuple[Tuple[str, Callable], ...] = ()
    peaks: Tuple[Tuple[str, Callable], ...] = ()

    def metric_names(self) -> List[str]:
        names = [f"{self.name}_s"] + ([f"{self.name}_calls"] if self.calls else [])
        return names + [f"{self.name}.{key}" for key, _ in self.counts + self.peaks]


#: Rows of the batch passed as the call's second positional argument.
_ROWS = (("rows", lambda args, result: len(args[1])),)


LAYERS = (
    Layer("autodiff.backward", "repro.autodiff.tensor", ("Tensor.backward",)),
    Layer("nn.optim.step", "repro.nn.optim", ("Adam.step",)),
    Layer(
        "core.distillation.distill",
        "repro.core.distillation",
        ("RobustDistiller.distill", "DirectDistiller.distill"),
    ),
    Layer(
        "core.distillation.dataset",
        "repro.core.distillation",
        ("collect_distillation_dataset",),
        counts=(("states", lambda args, result: len(result)),),
    ),
    Layer(
        "rl.ppo.collect",
        "repro.rl.ppo",
        ("PPOTrainer.collect_rollouts",),
        counts=(("transitions", lambda args, result: len(result)),),
    ),
    Layer("rl.ppo.update", "repro.rl.ppo", ("PPOTrainer.update",)),
    Layer("core.mixing.train", "repro.core.mixing", ("MixingTrainer.train",), calls=False),
    Layer(
        "metrics.evaluation.evaluate_controllers",
        "repro.metrics.evaluation",
        ("evaluate_controllers",),
        calls=False,
    ),
    Layer("utils.persistence.save", "repro.utils.persistence", ("save_cocktail_result",), calls=False),
    Layer("nn.lipschitz.network_lipschitz", "repro.nn.lipschitz", ("network_lipschitz",)),
    Layer(
        "verification.partition.partition_network",
        "repro.verification.partition",
        ("partition_network",),
        calls=False,
        counts=(("partitions", lambda args, result: result.num_partitions),),
    ),
    Layer("verification.partition.max_error", "repro.verification.partition", ("PartitionedApproximation.max_error",)),
    Layer(
        "verification.bernstein.coefficients",
        "repro.verification.bernstein",
        ("bernstein_coefficients_batch",),
        counts=(("boxes", lambda args, result: len(result)),),
    ),
    Layer("verification.bernstein.enclosure", "repro.verification.bernstein", ("bernstein_enclosure_batch",)),
    Layer(
        "verification.intervals.ibp",
        "repro.verification.intervals",
        ("network_output_bounds_batch",),
        counts=_ROWS,
    ),
    Layer(
        "verification.system_models.interval_dynamics",
        "repro.verification.system_models",
        ("interval_dynamics_batch",),
    ),
    Layer(
        "verification.reachability.reachable_sets",
        "repro.verification.reachability",
        ("reachable_sets",),
        calls=False,
        counts=(
            ("steps", lambda args, result: result.steps_completed),
            ("work", lambda args, result: result.work),
        ),
        peaks=(("epsilon", lambda args, result: result.approximation_error),),
    ),
    Layer(
        "verification.invariant.compute_invariant_set",
        "repro.verification.invariant",
        ("compute_invariant_set",),
        calls=False,
        counts=(("work", lambda args, result: result.work),),
    ),
    Layer("metrics.robustness.evaluate_robustness", "repro.metrics.robustness", ("evaluate_robustness",)),
    Layer("attacks.fgsm.perturb_batch", "repro.attacks.fgsm", ("FGSMAttack.perturb_batch",), counts=_ROWS),
    Layer("systems.simulation.batch_controls", "repro.systems.simulation", ("batch_controls",), counts=_ROWS),
    Layer("core.cocktail.run", "repro.core.cocktail", ("CocktailPipeline.run",)),
    Layer("verification.sweep.run", "repro.verification.sweep", ("VerificationSweep.run",), calls=False),
    Layer("experiments.store.save", "repro.experiments.store", ("RunStore.save",)),
    Layer("experiments.store.key", "repro.experiments.store", ("RunStore.key",)),
    Layer("telemetry.emit", "repro.telemetry.emitter", ("TelemetryEmitter.emit",)),
    Layer("scenarios.matrix.self", "repro.scenarios.matrix", ("run_scenario_matrix",), calls=False),
    Layer("scenarios.matrix.shards", "repro.scenarios.matrix", ("run_sharded_matrix",), calls=False),
    Layer("scenarios.matrix.merge", "repro.scenarios.matrix", ("merge_matrix_run",), calls=False),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    thread: int


class Tracer:
    """Records spans around the installed layers and around each operation."""

    OP = "op"

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.peaks: Dict[str, float] = {}
        self.missing: List[str] = []
        self._local = threading.local()
        self._op = -1
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op, threading.get_ident()))
        stack.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def op(self, op_id: int):
        self._op = op_id
        index = self._begin(self.OP)
        try:
            yield
        finally:
            self._end(index)

    # -- patching ------------------------------------------------------
    def _wrapper(self, layer: Layer, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._begin(layer.name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._end(index)
            for key, hook in layer.counts:
                tracer.counts[f"{layer.name}.{key}"] += hook(args, result)
            for key, hook in layer.peaks:
                name = f"{layer.name}.{key}"
                value = hook(args, result)
                tracer.peaks[name] = max(tracer.peaks.get(name, value), value)
            return result

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        owned = attribute in vars(owner)
        self._patches.append((owner, attribute, getattr(owner, attribute), owned))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        import importlib

        for layer in self.layers:
            module = importlib.import_module(layer.module)
            for target in layer.targets:
                owner_name, _, attribute = target.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attribute, None)
                if original is None:
                    self.missing.append(f"{layer.module}.{target}")
                    continue
                if isinstance(original, property):
                    wrapper = property(self._wrapper(layer, original.fget))
                else:
                    wrapper = self._wrapper(layer, original)
                if owner_name:
                    self._patch(owner, attribute, wrapper)
                    continue
                # A function: patch it under every name a repro module
                # imported it by, so callers that did `from x import f`
                # see the wrapper too.
                for name, loaded in list(sys.modules.items()):
                    if not (name == "repro" or name.startswith("repro.")) or loaded is None:
                        continue
                    for alias, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, alias, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- reduction -----------------------------------------------------
    def self_times(self, ops=None) -> Dict[str, Tuple[float, int]]:
        """Layer name -> (total self seconds, calls), over the spans of ``ops``
        (operation ids; default every span)."""

        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for index, span in enumerate(self.spans):
            if ops is not None and span.op not in ops:
                continue
            entry = totals[span.name]
            entry[0] += (span.end - span.start) - child_time[index]
            entry[1] += 1
        return {name: (seconds, int(calls)) for name, (seconds, calls) in totals.items()}

    def coverage(self) -> float:
        """Share of operation wall time spent inside top-level layer spans."""

        ops = {index for index, span in enumerate(self.spans) if span.name == self.OP}
        op_time = sum(self.spans[index].end - self.spans[index].start for index in ops)
        covered = sum(span.end - span.start for span in self.spans if span.parent in ops)
        return covered / op_time if op_time > 0 else 0.0

    def as_records(self) -> List[Dict]:
        return [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "op": span.op,
                "thread": span.thread,
            }
            for span in self.spans
        ]
