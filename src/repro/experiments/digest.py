"""Canonical configuration digests: one content address per pipeline stage.

Every cacheable unit of work in the repo -- a training run, an evaluation
cell, a verification job -- is identified by a digest of its *resolved*
configuration: the scenario's canonical name and merged plant parameters,
the full :class:`~repro.core.config.CocktailConfig` (seeds and
vectorization widths included), the analysis budgets, the engine.  Two
stages share a digest if and only if they would compute the same thing,
which is what lets :class:`~repro.experiments.store.RunStore` serve cached
results instead of recomputing them.

Canonicalisation rules (:func:`canonicalize`):

* mappings become plain dictionaries with *string* keys, serialised with
  sorted keys, so insertion order never leaks into the digest;
* tuples and lists both become lists (a config that round-trips through
  JSON must keep its digest);
* NumPy scalars become their Python equivalents and NumPy arrays become
  nested lists -- exactly what :func:`repro.utils.persistence._jsonify`
  writes -- so a record digested before a JSON round-trip digests the same
  afterwards;
* floats are serialised by ``repr`` (shortest round-trip), so ``1.50`` and
  ``1.5`` -- the same float -- always produce the same digest;
* dataclasses are digested as their field dictionaries, sets as sorted
  lists, paths as strings.

Anything else raises ``TypeError`` rather than silently digesting an
unstable ``repr``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import PurePath
from typing import Mapping

import numpy as np

__all__ = [
    "canonicalize",
    "canonical_json",
    "config_digest",
    "weights_digest",
]


def canonicalize(value):
    """Reduce ``value`` to plain JSON types with deterministic structure."""

    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.ndarray):
        # Shape-preserving, like the persistence layer: a (1,)-array stays a
        # one-element list so the digest survives a JSON round-trip.
        return canonicalize(value.tolist())
    if isinstance(value, np.generic):
        return canonicalize(value.item())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canonicalize(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(key): canonicalize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonicalize(item) for item in value), key=_sort_token)
    if isinstance(value, PurePath):
        return str(value)
    raise TypeError(f"cannot canonicalize {type(value).__name__!r} for digesting")


def _sort_token(value) -> str:
    """A total order over canonical values (sets may mix types)."""

    return json.dumps(value, sort_keys=True, default=repr)


def canonical_json(value) -> str:
    """The canonical JSON text of ``value`` (sorted keys, compact, repr floats)."""

    return json.dumps(canonicalize(value), sort_keys=True, separators=(",", ":"))


def config_digest(value) -> str:
    """Hex SHA-256 of the canonical JSON of ``value`` -- the cache key."""

    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def weights_digest(arrays: Mapping[str, np.ndarray], extra=None) -> str:
    """Hex digest of a named array collection (network weights, datasets).

    Hashes dtype, shape and raw bytes per sorted key, so any parameter
    update changes the digest (for live networks use
    :func:`network_weights_digest`).  ``extra`` is any canonicalizable
    context (architecture dict, analysis budgets) folded into the same hash.
    """

    hasher = hashlib.sha256()
    if extra is not None:
        hasher.update(canonical_json(extra).encode("utf-8"))
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        hasher.update(key.encode("utf-8"))
        hasher.update(str(array.dtype).encode("utf-8"))
        hasher.update(repr(array.shape).encode("utf-8"))
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def network_weights_digest(network) -> str:
    """Content address of a live :class:`~repro.nn.network.MLP`.

    :func:`weights_digest` over its state dictionary with its architecture
    folded in, so networks whose concatenated parameter bytes coincide but
    are shaped or activated differently never collide.  The run store keys
    evaluation results by it: any parameter update changes the digest.
    """

    return weights_digest(network.state_dict(), extra=network.architecture())
