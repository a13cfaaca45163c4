"""Declarative scenario and sweep specifications.

A :class:`Scenario` captures everything needed to run one simulation — the
experiment family (which fixes the topology and traffic model), the
channel-access scheme, the propagation model, the per-run parameters, and
the master seed — as plain data, so it can be pickled to a worker process,
serialised to JSON, and compared for equality in determinism tests.

A :class:`Sweep` is the declarative form of the loops previously
hand-rolled in ``cli.py`` and ``experiments/*``: a grid of swept axes, a
set of fixed parameters, a list of MAC kinds / propagation models and a
seed list, expanded to the cross-product of scenarios in a deterministic
order.  MAC and propagation names are validated against the registries
(:mod:`repro.mac.registry`, :mod:`repro.phy.registry`), so a newly
registered protocol or channel model is sweepable with zero campaign-layer
changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.mac.registry import MAC_REGISTRY, mac_kinds
from repro.metrics.registry import COLLECTOR_REGISTRY, collector_kinds
from repro.phy.registry import PROPAGATION_REGISTRY, get_propagation_spec, propagation_kinds
from repro.scenario.builder import topology_accepts_seed

#: Experiment families runnable by the campaign layer, each with the
#: topology it builds when no ``topology`` parameter overrides it (which
#: decides seed-dependence below) and the runner parameters that shape its
#: *construction* (the topology and the propagation draw that settles its
#: links).  The campaign runner groups runs sharing these values — plus
#: the propagation axis and, where construction is seeded, the seed —
#: consecutively, so each warm worker's artifact LRU sees long same-key
#: streaks (configuration-affinity dispatch).  Traffic and channel
#: parameters (``delta``, ``packets_per_node``, durations,
#: ``link_error_rate``, ``interference``, ``sinr_threshold_db``, ...) are
#: deliberately absent: they never split an artifact group.  See
#: :mod:`repro.campaign.runner` for the mapping onto the experiment runners.
_CONSTRUCTION: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "hidden-node": ("hidden-node", ("link_distance", "propagation_params")),
    "sinr-hidden-node": ("sinr-hidden-node", ("propagation_params",)),
    "testbed-tree": ("iotlab-tree", ("propagation_params",)),
    "testbed-star": ("iotlab-star", ("propagation_params",)),
    "scalability": ("concentric", ("topology", "nodes", "rings", "propagation_params")),
}

EXPERIMENT_KINDS = tuple(_CONSTRUCTION)

#: Scenario fields that cannot double as sweep parameters.
_RESERVED_PARAMS = ("mac", "seed", "propagation", "metrics")


def construction_seed_dependent(
    experiment: str, propagation: Optional[str], params: Mapping[str, Any]
) -> bool:
    """Whether this run's construction artifacts depend on the master seed.

    True when the propagation model is seeded and the run does not pin a
    seed via ``propagation_params``, or when the (possibly overridden)
    topology factory is seeded — the builder injects the scenario seed in
    both cases, so runs with different seeds build different artifacts.
    """
    if propagation is not None:
        propagation_params = params.get("propagation_params") or {}
        if "seed" not in propagation_params:
            if get_propagation_spec(propagation).accepts_seed():
                return True
    topology = params.get("topology") or _CONSTRUCTION[experiment][0]
    try:
        return topology_accepts_seed(str(topology))
    except KeyError:
        # Unknown topology name: assume seeded so affinity grouping never
        # merges runs that might build different artifacts.
        return True


def construction_values(experiment: str, params: Mapping[str, Any]) -> Tuple[str, ...]:
    """The construction-relevant parameter values of one run, repr-rendered
    (sortable across heterogeneous axes)."""
    return tuple(repr(params.get(name)) for name in _CONSTRUCTION[experiment][1])


def construction_affinity_key(
    experiment: str,
    propagation: Optional[str],
    seed: int,
    params: Mapping[str, Any],
    *,
    values: Optional[Tuple[str, ...]] = None,
    seed_dependent: Optional[bool] = None,
) -> Tuple[Any, ...]:
    """Sortable grouping key: runs with equal keys share construction artifacts.

    A conservative over-approximation of
    :meth:`repro.scenario.config.ScenarioConfig.cache_key` computed from
    campaign-level data alone: equal keys are guaranteed to share
    artifacts, unequal keys merely *may* differ.

    Seed-dependence is fully determined by ``(propagation, values)``, so
    batch callers (``CampaignRunner._affinity_order``) may pass
    precomputed ``values`` / ``seed_dependent`` to memoise the registry
    lookups per distinct pair instead of per run — the key assembly
    itself lives only here.
    """
    if values is None:
        values = construction_values(experiment, params)
    if seed_dependent is None:
        seed_dependent = construction_seed_dependent(experiment, propagation, params)
    seed_part: Tuple[int, int] = (1, seed) if seed_dependent else (0, 0)
    return (propagation or "", values, seed_part)


def _check_mac(mac: str) -> None:
    if mac not in MAC_REGISTRY:
        raise ValueError(f"unknown MAC kind {mac!r}; expected one of {mac_kinds()}")


def _check_propagation(propagation: Optional[str]) -> None:
    if propagation is not None and propagation not in PROPAGATION_REGISTRY:
        raise ValueError(
            f"unknown propagation model {propagation!r}; expected one of "
            f"{propagation_kinds()} (or None for the topology's explicit links)"
        )


def _check_metrics(metrics: Optional[Sequence[str]]) -> Optional[Tuple[str, ...]]:
    """Validate collector names against the registry; normalise to a tuple."""
    if metrics is None:
        return None
    names = tuple(metrics)
    if not names:
        raise ValueError("metrics must name at least one collector (or be None for defaults)")
    for name in names:
        if name not in COLLECTOR_REGISTRY:
            raise ValueError(
                f"unknown metric collector {name!r}; expected one of {collector_kinds()} "
                "(or None for the experiment's default collectors)"
            )
    return names


@dataclass
class Scenario:
    """One fully specified simulation run.

    ``params`` holds keyword arguments forwarded verbatim to the underlying
    experiment runner (e.g. ``delta``/``packets_per_node``/``warmup`` for
    ``hidden-node``, ``rings``/``duration`` for ``scalability``).
    ``propagation`` optionally names a registered propagation model that
    re-derives the topology's links; None keeps the explicit links.
    ``metrics`` optionally names the metric collectors instrumenting the
    run (validated against :mod:`repro.metrics.registry`); None uses the
    experiment's default collector set.
    """

    experiment: str
    mac: str = "qma"
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    propagation: Optional[str] = None
    metrics: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENT_KINDS}"
            )
        _check_mac(self.mac)
        _check_propagation(self.propagation)
        self.metrics = _check_metrics(self.metrics)

    @property
    def label(self) -> str:
        """Compact human-readable identifier used in tables and logs."""
        parts = [self.experiment, self.mac]
        if self.propagation is not None:
            parts.append(f"propagation={self.propagation}")
        if self.metrics is not None:
            parts.append(f"metrics={','.join(self.metrics)}")
        parts += [f"{key}={self.params[key]}" for key in sorted(self.params)]
        parts.append(f"seed={self.seed}")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "mac": self.mac,
            "seed": self.seed,
            "params": dict(self.params),
            "propagation": self.propagation,
            "metrics": list(self.metrics) if self.metrics is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        metrics = data.get("metrics")
        return cls(
            experiment=data["experiment"],
            mac=data.get("mac", "qma"),
            seed=int(data.get("seed", 0)),
            params=dict(data.get("params", {})),
            propagation=data.get("propagation"),
            metrics=tuple(metrics) if metrics is not None else None,
        )


@dataclass
class Sweep:
    """A cross-product of scenarios over MACs, propagation models, axes and seeds.

    ``grid`` maps parameter names to the values swept over; ``fixed`` maps
    parameter names to constants shared by every scenario.  Expansion order
    is deterministic: MAC kinds in the given order, then propagation models
    in the given order, then grid axes sorted by name (values in the given
    order), then seeds — so two equal sweeps always expand to the same
    scenario list.

    ``metrics`` optionally names the metric collectors instrumenting every
    scenario of the sweep (validated against the collector registry); None
    uses each experiment's default collector set.
    """

    experiment: str
    macs: Sequence[str] = ("qma",)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    fixed: Mapping[str, Any] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)
    propagations: Sequence[Optional[str]] = (None,)
    metrics: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        self.metrics = _check_metrics(self.metrics)
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENT_KINDS}"
            )
        if not self.macs:
            raise ValueError("macs must not be empty")
        for mac in self.macs:
            _check_mac(mac)
        if not self.propagations:
            raise ValueError("propagations must not be empty")
        for propagation in self.propagations:
            _check_propagation(propagation)
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        overlap = set(self.grid) & set(self.fixed)
        if overlap:
            raise ValueError(f"parameters swept and fixed at once: {sorted(overlap)}")
        reserved = set(_RESERVED_PARAMS) & (set(self.grid) | set(self.fixed))
        if reserved:
            raise ValueError(
                f"reserved parameter names {sorted(reserved)}: use the "
                "macs/seeds/propagations/metrics fields of the sweep instead"
            )
        for key, values in self.grid.items():
            if not values:
                raise ValueError(f"grid axis {key!r} has no values")

    @property
    def axes(self) -> Tuple[str, ...]:
        """Names of the swept parameter axes, sorted for deterministic order."""
        return tuple(sorted(self.grid))

    @property
    def size(self) -> int:
        """Number of scenarios the sweep expands to."""
        count = len(self.macs) * len(self.propagations) * len(self.seeds)
        for values in self.grid.values():
            count *= len(values)
        return count

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-serialisable, round-trips via :meth:`from_dict`).

        Sequences are normalised to lists, so ``from_dict(to_dict())``
        produces an equal dictionary — the campaign service hashes this
        canonical form into the sweep's spec digest.
        """
        return {
            "experiment": self.experiment,
            "macs": list(self.macs),
            "grid": {name: list(values) for name, values in self.grid.items()},
            "fixed": dict(self.fixed),
            "seeds": [int(seed) for seed in self.seeds],
            "propagations": list(self.propagations),
            "metrics": list(self.metrics) if self.metrics is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Sweep":
        metrics = data.get("metrics")
        return cls(
            experiment=data["experiment"],
            macs=list(data.get("macs", ("qma",))),
            grid={name: list(values) for name, values in data.get("grid", {}).items()},
            fixed=dict(data.get("fixed", {})),
            seeds=[int(seed) for seed in data.get("seeds", (0,))],
            propagations=list(data.get("propagations", (None,))),
            metrics=list(metrics) if metrics is not None else None,
        )

    def scenarios(self) -> List[Scenario]:
        """Expand the sweep to its scenario list (deterministic order)."""
        return list(self)

    def __iter__(self) -> Iterator[Scenario]:
        axis_names = self.axes
        axis_values = [self.grid[name] for name in axis_names]
        for mac in self.macs:
            for propagation in self.propagations:
                for combo in itertools.product(*axis_values):
                    params = dict(self.fixed)
                    params.update(zip(axis_names, combo))
                    for seed in self.seeds:
                        yield Scenario(
                            experiment=self.experiment,
                            mac=mac,
                            seed=seed,
                            params=params.copy(),
                            propagation=propagation,
                            metrics=self.metrics,
                        )

    def __len__(self) -> int:
        return self.size
