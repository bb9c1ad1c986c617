"""Persistence of trained Cocktail artefacts and experiment records.

Two kinds of artefacts are saved:

* **controllers** -- the distilled student networks are written as ``.npz``
  archives (weights + architecture) via :mod:`repro.nn.serialization`, so a
  deployment target can reload κ* without the training stack;
* **experiment records** -- plain JSON dictionaries of metrics (safe rates,
  energies, Lipschitz constants, verification times) with enough metadata
  to regenerate a table row later.  When the producing
  :class:`~repro.core.cocktail.CocktailResult` carries its config, the
  record also gains the full resolved configuration and its canonical
  :func:`~repro.experiments.digest.config_digest` -- the identity that
  links the record to the run-store entry that produced it.

NumPy values inside records are serialised shape-preservingly (scalars stay
scalars, ``(1,)``-arrays stay one-element lists), so a record's digest
survives a JSON round-trip -- the property the digesting tests pin.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.experts.base import NeuralController
from repro.nn.serialization import load_state_dict, save_state_dict

PathLike = Union[str, Path]


def save_experiment_record(record: Dict, path: PathLike) -> Path:
    """Write a JSON experiment record (creating parent directories)."""

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True, default=_jsonify)
    return path


def save_cocktail_result(
    result,
    directory: PathLike,
    record: Optional[Dict] = None,
    context: Optional[Dict] = None,
    timestamp: bool = True,
    digest: Optional[str] = None,
) -> Path:
    """Persist the distilled controllers of a :class:`CocktailResult`.

    Writes ``kappa_star.npz`` (always), ``kappa_d.npz`` (when the direct
    baseline was trained) and ``record.json`` with the experiment record
    plus basic bookkeeping (expert names, dataset size).  When the result
    carries the :class:`~repro.core.config.CocktailConfig` it was trained
    with, the record additionally stores the full resolved config and the
    canonical digest of ``{config, context}`` -- ``context`` is the
    caller-side identity (system name, seed, ...) that the configuration
    alone does not capture.  ``timestamp=False`` omits ``created_unix``
    (the only non-deterministic field) for byte-stable records.  An
    explicit ``digest`` wins over the computed one; the CLI passes its
    run-store key digest here so ``repro runs show <record digest>``
    resolves to the entry that produced the record.
    """

    from repro.experiments.digest import canonicalize, config_digest

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_state_dict(result.student.network, directory / "kappa_star.npz")
    saved = {"kappa_star": "kappa_star.npz"}
    if result.direct_student is not None:
        save_state_dict(result.direct_student.network, directory / "kappa_d.npz")
        saved["kappaD"] = "kappa_d.npz"
    payload = {
        "controllers": saved,
        "experts": [expert.name for expert in result.experts],
        "dataset_size": len(result.dataset),
    }
    config = getattr(result, "config", None)
    if config is not None:
        payload["config"] = canonicalize(config)
    if context:
        payload["context"] = canonicalize(context)
    if digest is not None:
        payload["digest"] = digest
    elif config is not None or context:
        payload["digest"] = config_digest(
            {"config": payload.get("config"), "context": payload.get("context")}
        )
    if timestamp:
        payload["created_unix"] = time.time()
    if record:
        payload["record"] = record
    save_experiment_record(payload, directory / "record.json")
    return directory


def load_student_controller(directory: PathLike, name: str = "kappa_star") -> NeuralController:
    """Reload a saved student network as a :class:`NeuralController`."""

    directory = Path(directory)
    with (directory / "record.json").open() as handle:
        payload = json.load(handle)
    controllers = payload.get("controllers", {})
    if name not in controllers:
        raise KeyError(f"controller {name!r} not present in {directory}; available: {sorted(controllers)}")
    network = load_state_dict(directory / controllers[name])
    return NeuralController(network, name=name)


def _jsonify(value):
    """Fallback serialiser for NumPy scalars/arrays inside records.

    Shape-preserving: only genuine scalars (0-d) collapse to Python
    numbers; any array -- including one of size 1 -- stays a (nested) list,
    so records round-trip through JSON without changing structure (and
    therefore without changing their digest).
    """

    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value)!r} to JSON")
