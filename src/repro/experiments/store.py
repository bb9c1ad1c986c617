"""Digest-keyed, resumable run store for experiment artefacts.

A :class:`RunStore` is a directory of completed pipeline stages, each keyed
by the :func:`~repro.experiments.digest.config_digest` of its resolved
configuration::

    <root>/
        <stage>/<digest>/
            entry.json     # stage, digest, canonical config, created_unix
            result.json    # the stage's JSON result payload
            <name>.npz     # optional network / array artefacts

``stage`` names the kind of work (``train``, ``evaluate``, ``verify``,
...), and the digest covers everything that determines the stage's output
-- scenario parameters, :class:`~repro.core.config.CocktailConfig`, seeds,
engine and vectorization widths -- so an unchanged request is answered
from disk (:meth:`RunStore.contains`, :meth:`RunStore.load_result`)
instead of being recomputed.

Entries are written atomically: artefacts land in a temporary sibling
directory that is renamed into place only once ``result.json`` exists, so
a run killed mid-cell leaves at most an ignorable ``.tmp`` directory and a
rerun against the same store recomputes exactly the missing cells.  Timestamps
live in ``entry.json`` only; ``result.json`` is a deterministic function
of the work, which is what the byte-stability regression tests pin.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.experiments.digest import canonicalize, config_digest

PathLike = Union[str, Path]

_ENTRY_FILE = "entry.json"
_RESULT_FILE = "result.json"
_TMP_PREFIX = ".tmp-"


def _publish(staging: Path, final: Path) -> None:
    """Rename ``staging`` to ``final``, replacing any entry already there.

    Two writers of one key (a forced rerun finishing beside its primary)
    may publish at once.  Each retires the entry it finds by renaming it
    to a fresh staging name before deleting it, so neither deletes a
    directory the other is renaming; the last rename wins.
    """

    while True:
        try:
            os.replace(staging, final)
            return
        except OSError as error:
            if error.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                raise
        retired = final.parent / f"{_TMP_PREFIX}{final.name[:16]}-{uuid.uuid4().hex[:8]}"
        try:
            os.replace(final, retired)
        except FileNotFoundError:
            continue
        shutil.rmtree(retired, ignore_errors=True)


@dataclass(frozen=True)
class RunKey:
    """Identity of one pipeline stage: its kind plus its config digest."""

    stage: str
    digest: str
    config: Dict

    def __post_init__(self) -> None:
        if not self.stage or "/" in self.stage or self.stage.startswith("."):
            raise ValueError(f"bad stage name {self.stage!r}")


def run_key(stage: str, config) -> RunKey:
    """The :class:`RunKey` of ``stage`` with resolved ``config``.

    The one digest formula of a stored stage.  It needs no store, so a run
    that writes no entry still names the one it would have written.
    """

    canonical = canonicalize(config)
    digest = config_digest({"stage": stage, "config": canonical})
    return RunKey(stage=stage, digest=digest, config=canonical)


class RunStore:
    """Content-addressed store of completed pipeline stages under ``root``.

    A caller checks :meth:`contains` and replays with :meth:`load_result`,
    or runs the stage and records it with :meth:`save`.
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)

    # -- keys ----------------------------------------------------------
    def key(self, stage: str, config) -> RunKey:
        """Build the :class:`RunKey` for ``stage`` with resolved ``config``."""

        return run_key(stage, config)

    def entry_dir(self, key: RunKey) -> Path:
        return self.root / key.stage / key.digest

    def contains(self, key: RunKey) -> bool:
        return (self.entry_dir(key) / _RESULT_FILE).exists()

    # -- reads ---------------------------------------------------------
    def load_result(self, key: RunKey) -> Dict:
        with (self.entry_dir(key) / _RESULT_FILE).open() as handle:
            return json.load(handle)

    def load_network(self, key: RunKey, name: str):
        """Reload a network artefact saved by :meth:`save` as an MLP."""

        from repro.nn.serialization import load_state_dict

        return load_state_dict(self.entry_dir(key) / f"{name}.npz")

    # -- writes --------------------------------------------------------
    def save(
        self,
        key: RunKey,
        result: Mapping,
        networks: Optional[Mapping] = None,
        files: Optional[Mapping[str, PathLike]] = None,
    ) -> Path:
        """Atomically record a completed stage (result + optional artefacts).

        ``networks`` maps artefact names to live :class:`repro.nn.MLP`
        objects (saved as ``<name>.npz``); ``files`` maps destination names
        to existing files copied into the entry.  An existing entry under
        the same key is replaced wholesale.
        """

        final = self.entry_dir(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        staging = final.parent / f"{_TMP_PREFIX}{key.digest[:16]}-{uuid.uuid4().hex[:8]}"
        staging.mkdir()
        try:
            if networks:
                from repro.nn.serialization import save_state_dict

                for name, network in networks.items():
                    save_state_dict(network, staging / f"{name}.npz")
            for name, source in (files or {}).items():
                shutil.copyfile(Path(source), staging / name)
            with (staging / _RESULT_FILE).open("w") as handle:
                json.dump(canonicalize(result), handle, indent=2, sort_keys=True)
                handle.write("\n")
            entry = {
                "stage": key.stage,
                "digest": key.digest,
                "config": key.config,
                "created_unix": time.time(),
            }
            with (staging / _ENTRY_FILE).open("w") as handle:
                json.dump(entry, handle, indent=2, sort_keys=True)
                handle.write("\n")
            _publish(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return final

    # -- inspection ----------------------------------------------------
    def stages(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir() and not p.name.startswith("."))

    def entries(self, stage: Optional[str] = None) -> List[Dict]:
        """Every complete entry (its ``entry.json`` plus path and size)."""

        rows: List[Dict] = []
        for stage_name in [stage] if stage is not None else self.stages():
            stage_dir = self.root / stage_name
            if not stage_dir.is_dir():
                continue
            for entry_dir in sorted(stage_dir.iterdir()):
                if not entry_dir.is_dir() or entry_dir.name.startswith("."):
                    continue
                entry_file = entry_dir / _ENTRY_FILE
                if not entry_file.exists() or not (entry_dir / _RESULT_FILE).exists():
                    continue
                with entry_file.open() as handle:
                    entry = json.load(handle)
                entry["path"] = str(entry_dir)
                entry["files"] = sorted(p.name for p in entry_dir.iterdir() if p.is_file())
                entry["bytes"] = sum(p.stat().st_size for p in entry_dir.iterdir() if p.is_file())
                rows.append(entry)
        return rows

    def find(self, digest_prefix: str) -> List[Dict]:
        """Complete entries whose digest starts with ``digest_prefix``."""

        prefix = digest_prefix.lower()
        return [entry for entry in self.entries() if str(entry.get("digest", "")).startswith(prefix)]

    def gc(self, stages: Optional[List[str]] = None, dry_run: bool = False) -> Tuple[List[Path], List[Path]]:
        """Collect garbage: incomplete entries always, whole stages on request.

        Returns ``(incomplete, removed_entries)`` -- the staging/incomplete
        directories swept and the complete entries deleted because their
        stage was listed in ``stages``.  ``dry_run=True`` only reports.
        """

        incomplete: List[Path] = []
        removed: List[Path] = []
        for stage_name in self.stages():
            stage_dir = self.root / stage_name
            for entry_dir in sorted(stage_dir.iterdir()):
                if not entry_dir.is_dir():
                    continue
                if entry_dir.name.startswith(_TMP_PREFIX) or not (entry_dir / _RESULT_FILE).exists():
                    incomplete.append(entry_dir)
                elif stages and stage_name in stages:
                    removed.append(entry_dir)
        if not dry_run:
            for path in incomplete + removed:
                shutil.rmtree(path, ignore_errors=True)
        return incomplete, removed
