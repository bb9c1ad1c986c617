"""Validated, versioned wire messages: the shared ``named_types`` machinery.

One validated frozen dataclass per message -- the class *is* the schema.
Each message declares a wire name (``TYPE``), a ``SCHEMA_VERSION`` and
typed fields checked on construction, so a malformed payload fails loudly
at the producer instead of silently corrupting whatever stream or file
carries it.  This module is the family-agnostic core shared by the
telemetry event log (:mod:`repro.telemetry.events`) and the job specs
(:mod:`repro.jobs.messages`):

* ``to_json``/``from_json`` round-trip exactly within one version (tuples
  survive the JSON list round-trip);
* same-version decodes are *strict* -- extra, missing or mistyped fields
  raise :class:`MessageValidationError`;
* newer-version payloads decode best-effort from the fields the reader
  knows, and unknown types wrap instead of raising, so an old client
  keeps working against a newer fleet (:func:`parse_message`).

A family decoded by wire name (the telemetry events) owns a plain
``{wire name: class}`` registry dict and an "unknown" wrapper class;
:func:`register_message` populates the registry,
:func:`parse_message`/:func:`decode_message_line` route through it.

Versioning policy (see ``docs/telemetry.md``): adding an *optional* field
keeps the version; adding a required field, renaming or retyping anything
bumps ``SCHEMA_VERSION``.
"""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, ClassVar, Dict, Mapping, Optional, Tuple, Type

__all__ = [
    "MessageValidationError",
    "TypedMessage",
    "register_message",
    "parse_message",
    "decode_message_line",
]


class MessageValidationError(ValueError):
    """A wire-message payload failed its class's field validation."""


_HINT_CACHE: Dict[type, Dict[str, Any]] = {}


def _type_hints(cls: type) -> Dict[str, Any]:
    if cls not in _HINT_CACHE:
        _HINT_CACHE[cls] = typing.get_type_hints(cls)
    return _HINT_CACHE[cls]


def _checked(cls_name: str, name: str, value, annotation):
    """Validate ``value`` against ``annotation``; ints promote to floats."""

    origin = typing.get_origin(annotation)
    if origin is typing.Union:
        arms = typing.get_args(annotation)
        if value is None and type(None) in arms:
            return None
        inner = [arm for arm in arms if arm is not type(None)]
        return _checked(cls_name, name, value, inner[0])
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MessageValidationError(f"{cls_name}.{name} must be a number, got {value!r}")
        return float(value)
    if annotation is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise MessageValidationError(f"{cls_name}.{name} must be an integer, got {value!r}")
        return value
    if annotation is bool:
        if not isinstance(value, bool):
            raise MessageValidationError(f"{cls_name}.{name} must be a boolean, got {value!r}")
        return value
    if annotation is str:
        if not isinstance(value, str):
            raise MessageValidationError(f"{cls_name}.{name} must be a string, got {value!r}")
        return value
    if origin in (tuple, Tuple):
        if isinstance(value, str) or not isinstance(value, (list, tuple)):
            raise MessageValidationError(f"{cls_name}.{name} must be a sequence, got {value!r}")
        item_type = typing.get_args(annotation)[0]
        return tuple(_checked(cls_name, name, item, item_type) for item in value)
    return value  # Dict / Any fields (unknown-message payloads) pass through


@dataclass(frozen=True)
class TypedMessage:
    """Base of every wire message: typed, validated, versioned.

    Subclasses declare their wire name in ``TYPE``, bump ``SCHEMA_VERSION``
    on incompatible change, and may override :meth:`_validate` for semantic
    checks beyond field typing.
    """

    TYPE: ClassVar[str] = ""
    SCHEMA_VERSION: ClassVar[int] = 1

    def __post_init__(self) -> None:
        hints = _type_hints(type(self))
        for spec in fields(self):
            value = _checked(type(self).__name__, spec.name, getattr(self, spec.name), hints[spec.name])
            object.__setattr__(self, spec.name, value)
        self._validate()

    def _validate(self) -> None:
        """Per-class semantic checks (field types are already enforced)."""

    def to_json(self) -> Dict:
        """The wire payload: ``type`` and ``version`` first, fields in order."""

        payload: Dict = {"type": self.TYPE, "version": self.SCHEMA_VERSION}
        for spec in fields(self):
            value = getattr(self, spec.name)
            payload[spec.name] = list(value) if isinstance(value, tuple) else value
        return payload

    def to_line(self) -> str:
        """One compact JSON line (no newline); the log/socket unit of append."""

        return json.dumps(self.to_json(), separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: Mapping, strict: bool = True) -> "TypedMessage":
        """Rebuild a message from its wire payload.

        ``strict`` (same-version reads) rejects unexpected keys; the
        tolerant mode (newer-version reads) ignores them and falls back to
        field defaults, so old readers survive additive schema growth.
        """

        known = {spec.name for spec in fields(cls)}
        if strict:
            extras = set(payload) - known - {"type", "version"}
            if extras:
                raise MessageValidationError(
                    f"{cls.TYPE} v{cls.SCHEMA_VERSION}: unexpected field(s) {sorted(extras)}"
                )
        kwargs = {}
        for spec in fields(cls):
            if spec.name in payload:
                kwargs[spec.name] = payload[spec.name]
            elif spec.default is MISSING and spec.default_factory is MISSING:
                raise MessageValidationError(f"{cls.TYPE}: missing required field {spec.name!r}")
        return cls(**kwargs)


def register_message(registry: Dict[str, Type[TypedMessage]]) -> Callable:
    """Class decorator factory adding messages to ``registry`` by ``TYPE``."""

    def register(cls: Type[TypedMessage]) -> Type[TypedMessage]:
        if not cls.TYPE:
            raise ValueError(f"{cls.__name__} declares no TYPE wire name")
        if cls.TYPE in registry:
            raise ValueError(f"duplicate message type {cls.TYPE!r}")
        registry[cls.TYPE] = cls
        return cls

    return register


def parse_message(
    payload: Mapping, registry: Mapping[str, Type[TypedMessage]], unknown: Type[TypedMessage]
) -> TypedMessage:
    """Decode one wire payload into its typed message.

    Routing is by the payload's ``type``/``version``: a registered type at
    (or below) this reader's ``SCHEMA_VERSION`` decodes strictly, a *newer*
    version decodes tolerantly from the known fields, and anything else --
    unknown type, unreadable version, a newer payload missing even the
    known required fields -- wraps via ``unknown.wrap(payload)``.  Only a
    same-version malformed payload raises :class:`MessageValidationError`.
    """

    if not isinstance(payload, Mapping):
        raise MessageValidationError(
            f"message payload must be an object, got {type(payload).__name__}"
        )
    version = payload.get("version")
    cls = registry.get(payload.get("type"))
    if cls is None or not isinstance(version, int) or isinstance(version, bool) or version < 1:
        return unknown.wrap(payload)
    if version > cls.SCHEMA_VERSION:
        try:
            return cls.from_json(payload, strict=False)
        except MessageValidationError:
            return unknown.wrap(payload)
    return cls.from_json(payload)


def decode_message_line(
    line, registry: Mapping[str, Type[TypedMessage]], unknown: Type[TypedMessage]
) -> Optional[TypedMessage]:
    """Robust file-side decode of one log line; ``None`` for non-messages.

    Torn or truncated lines (a writer died mid-append) and non-JSON debris
    return ``None``; structurally valid JSON that fails typing comes back
    wrapped via ``unknown`` -- a live reader must never crash on one bad
    line.
    """

    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            return None
    line = line.strip()
    if not line:
        return None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict):
        return None
    try:
        return parse_message(payload, registry, unknown)
    except MessageValidationError:
        return unknown.wrap(payload)
