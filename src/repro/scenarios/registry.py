"""Declarative scenario registry: specs, registration and name resolution.

A *scenario* bundles everything one control workload needs to run the whole
Cocktail pipeline end-to-end: the plant constructor and its default
parameters, the default analytic expert pair, the batched interval
inclusion function used by the verifier, and per-scenario training /
verification budget hints.  Scenarios are registered once (the built-in
catalog lives in :mod:`repro.scenarios.catalog`) and every dispatch layer
of the repo -- the systems factory, the expert factory, the verification
interval models and the CLI ``--system`` choices -- resolves through this
single registry, gym-style.

Scenario names support parameter-overridable *variants*: the query syntax
``"vanderpol?mu=1.5"`` (with ``&`` separating multiple overrides) resolves
to the ``vanderpol`` spec with ``mu=1.5`` passed to the plant constructor,
so sweeps can fan out over plant-parameter families without registering
each point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.systems.base import ControlSystem

#: Batched inclusion function: ``(system, states, controls, disturbance) ->
#: Interval`` over ``(N, state_dim)`` interval stacks (see
#: :func:`repro.verification.system_models.interval_dynamics_batch`).
InclusionFunction = Callable[..., object]

#: Expert factory: ``(system) -> [kappa1, kappa2, ...]``.
ExpertFactory = Callable[[ControlSystem], List[object]]


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one workload needs, behind one name.

    Attributes
    ----------
    name:
        Canonical scenario name (the CLI ``--system`` value).
    description:
        One-line human description shown by ``repro scenarios list``.
    system_factory:
        Plant constructor; called with ``default_params`` merged with any
        variant overrides.
    expert_factory:
        Builds the default analytic expert pair ``[kappa1, kappa2]`` for a
        plant instance.
    interval_dynamics:
        Batched-native inclusion function pushing ``(N, state_dim)``
        interval stacks through one dynamics step; with ``None`` the
        plant cannot be verified (reachability and invariant-set analyses
        raise :class:`~repro.verification.system_models.MissingInclusionFunction`).
    default_params:
        Keyword arguments the factory is called with by default.
    aliases:
        Alternative names accepted by :func:`get_scenario`.
    train_budget:
        Per-scenario training budget hints consumed by
        :meth:`repro.core.config.CocktailConfig.from_budget_hints`
        (``mixing_epochs``, ``mixing_steps``, ``distill_epochs``,
        ``dataset_size``, ``trajectory_fraction``, ``eval_samples``).
    verify_budget:
        Per-scenario verification hints (``target_error``, ``degree``,
        ``max_partitions``, ``reach_steps``, ``reach_box_scale``) used by
        the matrix runner and the sweep harness.
    tags:
        Free-form labels (``"paper"``, ``"extension"``, ...).
    """

    name: str
    description: str
    system_factory: Callable[..., ControlSystem]
    expert_factory: Optional[ExpertFactory] = None
    interval_dynamics: Optional[InclusionFunction] = None
    default_params: Mapping[str, object] = field(default_factory=dict)
    aliases: Tuple[str, ...] = ()
    train_budget: Mapping[str, object] = field(default_factory=dict)
    verify_budget: Mapping[str, object] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()

    def make_system(self, **overrides) -> ControlSystem:
        """Instantiate the plant with defaults merged with ``overrides``."""

        params = dict(self.default_params)
        params.update(overrides)
        return self.system_factory(**params)

    def make_experts(self, system: ControlSystem) -> List[object]:
        """Build the default expert pair for a plant instance."""

        if self.expert_factory is None:
            raise ValueError(f"scenario {self.name!r} registers no expert factory")
        return self.expert_factory(system)

    def describe(self) -> Dict[str, object]:
        """A JSON-friendly summary row for ``repro scenarios list``."""

        system = self.make_system()
        return {
            "name": self.name,
            "description": self.description,
            "state_dim": system.state_dim,
            "control_dim": system.control_dim,
            "horizon": system.horizon,
            "aliases": list(self.aliases),
            "tags": list(self.tags),
        }


_REGISTRY: Dict[str, ScenarioSpec] = {}
_ALIASES: Dict[str, str] = {}


def register_scenario(spec: ScenarioSpec, overwrite: bool = False) -> ScenarioSpec:
    """Add a scenario to the catalog (``overwrite=True`` replaces in place).

    Validation happens before any mutation, so a name/alias collision
    leaves the registry exactly as it was.
    """

    key = spec.name.lower()
    alias_keys = [alias.lower() for alias in spec.aliases]
    if not overwrite:
        if key in _REGISTRY or key in _ALIASES:
            raise ValueError(f"scenario {spec.name!r} is already registered")
        for alias, alias_key in zip(spec.aliases, alias_keys):
            existing = _ALIASES.get(alias_key)
            if alias_key in _REGISTRY or (existing is not None and existing != key):
                raise ValueError(f"scenario alias {alias!r} is already registered")
    else:
        # Replacing in place: retire the old spec's aliases (a replacement
        # that drops an alias must stop resolving it) and any alias that
        # currently shadows the new canonical name.
        previous = _REGISTRY.get(key)
        if previous is not None:
            for alias in previous.aliases:
                _ALIASES.pop(alias.lower(), None)
        _ALIASES.pop(key, None)
    _REGISTRY[key] = spec
    for alias_key in alias_keys:
        _ALIASES[alias_key] = key
    return spec


def unregister_scenario(name: str) -> None:
    """Remove a scenario (and its aliases) from the catalog; used by tests."""

    key = name.lower()
    spec = _REGISTRY.pop(key, None)
    if spec is None:
        raise ValueError(f"scenario {name!r} is not registered")
    for alias in spec.aliases:
        _ALIASES.pop(alias.lower(), None)


def list_scenarios() -> List[str]:
    """Canonical names of every registered scenario, sorted."""

    return sorted(_REGISTRY)


def scenario_specs() -> List[ScenarioSpec]:
    """All registered specs in :func:`list_scenarios` order."""

    return [_REGISTRY[name] for name in list_scenarios()]


def _parse_overrides(query: str, name: str) -> Dict[str, object]:
    """Parse ``mu=1.5&horizon=50`` into a keyword dictionary.

    Values go through :func:`ast.literal_eval` so numbers, tuples and
    booleans round-trip; anything unparseable stays a string.
    """

    overrides: Dict[str, object] = {}
    for piece in query.split("&"):
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(
                f"bad parameter override {piece!r} in scenario {name!r}; expected key=value"
            )
        key, raw = piece.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"empty parameter name in scenario {name!r}")
        try:
            value: object = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        overrides[key] = value
    return overrides


def resolve_scenario(name: str) -> Tuple[ScenarioSpec, Dict[str, object]]:
    """Resolve ``name`` (canonical, alias or ``base?key=value`` variant).

    Returns the spec and the parameter overrides encoded in the variant
    query (empty for a plain name).  Raises ``ValueError`` listing the
    registered scenarios when the base name is unknown.
    """

    if not isinstance(name, str) or not name:
        raise ValueError(f"scenario name must be a non-empty string, got {name!r}")
    base, _, query = name.partition("?")
    key = base.strip().lower()
    key = _ALIASES.get(key, key)
    spec = _REGISTRY.get(key)
    if spec is None:
        raise ValueError(
            f"unknown scenario {base!r}; choose from {list_scenarios()} "
            "(or register_scenario() your own)"
        )
    return spec, _parse_overrides(query, name)


def get_scenario(name: str) -> ScenarioSpec:
    """Return the spec registered under ``name`` (alias/variant tolerant)."""

    spec, _ = resolve_scenario(name)
    return spec


def find_scenario(name: Optional[str]) -> Optional[ScenarioSpec]:
    """Like :func:`get_scenario` but returns ``None`` instead of raising."""

    if not isinstance(name, str) or not name:
        return None
    try:
        spec, _ = resolve_scenario(name)
    except ValueError:
        return None
    return spec


def make_scenario_system(name: str, **kwargs) -> ControlSystem:
    """Instantiate a scenario's plant by (possibly variant) name.

    Keyword arguments win over variant overrides, which win over the spec's
    defaults -- so ``make_scenario_system("vanderpol?mu=1.5", horizon=50)``
    builds a ``mu=1.5`` oscillator with a 50-step horizon.
    """

    spec, overrides = resolve_scenario(name)
    overrides.update(kwargs)
    return spec.make_system(**overrides)
