"""The paper's figures and tables as data: one :class:`Figure` row each.

A row holds

* the run at paper size: ``paper``, the argparse defaults of its
  ``qma-repro`` command (rows without a command run at paper size through
  their runner's defaults);
* the run at reduced size: ``reduced``, the keyword arguments every run
  of a claim starts from (the claim adds the point it measures, such as
  ``mac``, ``seed`` and ``delta``), small enough for the tier-1 suite;
* the paper's qualitative claims, each a measured value and the
  :class:`Band` it must lie in (:meth:`Figure.failures`).

The campaign figures (:class:`SweepFigure`: ``fig7``, ``testbed``,
``fig21``) also say how the command's arguments become a
:class:`~repro.campaign.spec.Sweep` and which columns it prints; their
claims run single scenarios through the campaign's family table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.stats import rolling_average
from repro.campaign.frame import TableAggregator
from repro.campaign.runner import scenario_report
from repro.campaign.spec import Scenario, Sweep
from repro.core.actions import QAction
from repro.core.config import QmaConfig
from repro.core.rewards import reward_table
from repro.experiments.ablation import (
    EXPLORATION_STRATEGIES,
    run_exploration_ablation,
    run_startup_ablation,
)
from repro.experiments.handshake import PAPER_PROBABILITIES, handshake_expected_messages
from repro.experiments.hidden_node import (
    run_convergence,
    run_fluctuating,
    run_hidden_node,
    run_slot_utilisation,
)
from repro.topology.hidden_node import NODE_A, NODE_C


@dataclass(frozen=True)
class Band:
    """An interval a claim's measured value must lie in."""

    low: float = -math.inf
    high: float = math.inf
    open_low: bool = False
    open_high: bool = False

    def __contains__(self, value: float) -> bool:
        above = value > self.low if self.open_low else value >= self.low
        below = value < self.high if self.open_high else value <= self.high
        return above and below

    def __str__(self) -> str:
        opening = "(" if self.open_low or self.low == -math.inf else "["
        closing = ")" if self.open_high or self.high == math.inf else "]"
        return f"{opening}{self.low}, {self.high}{closing}"


def above(low: float) -> Band:
    return Band(low=low, open_low=True)


def at_least(low: float) -> Band:
    return Band(low=low)


def at_most(high: float) -> Band:
    return Band(high=high)


def between(low: float, high: float) -> Band:
    return Band(low=low, high=high)


def exactly(value: float) -> Band:
    return Band(low=value, high=value)


#: A claim's measurement: called with the row's memoised run function.
Measure = Callable[[Callable[..., Any]], float]


@dataclass(frozen=True)
class Claim:
    text: str
    band: Band
    measure: Measure


@dataclass(frozen=True, kw_only=True)
class Figure:
    """One figure or table: its runs at paper and reduced size and its claims."""

    name: str
    caption: str
    reduced: Mapping[str, Any]
    claims: Tuple[Claim, ...]
    paper: Mapping[str, Any] = field(default_factory=dict)
    func: Optional[Callable[..., Any]] = None

    def run(self, **kwargs: Any) -> Any:
        return self.func(**kwargs)

    def failures(self) -> List[str]:
        """Measure every claim at reduced size; one line per claim outside
        its band.  Claims with identical inputs share one run."""
        runs: Dict[Tuple, Any] = {}

        def run(**point: Any) -> Any:
            kwargs = {**self.reduced, **point}
            key = tuple(sorted(kwargs.items()))
            if key not in runs:
                runs[key] = self.run(**kwargs)
            return runs[key]

        lines = []
        for claim in self.claims:
            value = float(claim.measure(run))
            if value not in claim.band:
                lines.append(
                    f"{self.name}: {claim.text}: measured {value:.6g}, outside {claim.band}"
                )
        return lines


#: Rows of one aggregate group: ``(group key, {metric: {"mean", "ci95", "n"}})``.
Cells = Callable[[Tuple[Any, ...], Dict[str, Dict[str, Any]]], List[List[Any]]]


@dataclass(frozen=True, kw_only=True)
class SweepFigure(Figure):
    """A campaign figure: its command sweeps ``experiment`` and prints one
    table, grouped by the grid axes and the MAC."""

    experiment: str
    grid: Mapping[str, str]  # sweep axis -> argparse dest of its values
    fixed: Mapping[str, str]  # fixed parameter -> argparse dest
    metrics: Tuple[str, ...]  # the metrics the printed table reads
    header: Tuple[str, ...]
    cells: Cells

    @property
    def by(self) -> Tuple[str, ...]:
        return tuple(self.grid) + ("mac",)

    def run(self, mac: str, seed: int, **params: Any) -> Any:
        return scenario_report(
            Scenario(experiment=self.experiment, mac=mac, seed=seed, params=params)
        )

    def sweep(self, args: Any) -> Sweep:
        """The command's sweep over its parsed arguments."""
        return Sweep(
            experiment=self.experiment,
            macs=args.macs,
            propagations=[args.propagation],
            grid={axis: getattr(args, dest) for axis, dest in self.grid.items()},
            fixed={param: getattr(args, dest) for param, dest in self.fixed.items()},
            seeds=list(range(args.repetitions)) if "repetitions" in self.paper else [args.seed],
            metrics=args.collectors,
        )

    def table(self, aggregator: TableAggregator, args: Any) -> List[List[Any]]:
        """The printed rows, grid values and MACs in command-line order."""
        groups = {metric: aggregator.groups(metric) for metric in aggregator.metric_names()}
        rows: List[List[Any]] = []
        axes = [getattr(args, dest) for dest in self.grid.values()] + [args.macs]
        for key in itertools.product(*axes):
            stats = {metric: by_key[key] for metric, by_key in groups.items() if key in by_key}
            rows.extend(self.cells(key, stats))
        return rows


# ------------------------------------------------------------ measurements
def _value(metric: str, **point: Any) -> Measure:
    return lambda run: getattr(run(**point), metric)


def _gap(metric: str, first: str, second: str, **point: Any) -> Measure:
    """``metric`` of MAC ``first`` minus that of MAC ``second`` at one point."""
    return lambda run: (
        getattr(run(mac=first, **point), metric) - getattr(run(mac=second, **point), metric)
    )


def _spread(series: List[Tuple[float, float]]) -> float:
    values = [value for _, value in series]
    return max(values) - min(values)


def _max_rolling_rho(report: Any) -> float:
    rho = [value for _, value in report.table("rho_history")[NODE_A]]
    return max(rolling_average(rho, 10)) if rho else 0.0


def _rises(curve: Dict[float, float]) -> int:
    """Steps of ``p`` over which the curve rises."""
    values = [curve[p] for p in sorted(curve)]
    return sum(1 for before, after in zip(values, values[1:]) if after > before)


def _mean_pdr(run: Callable[..., Any], penalty: float) -> float:
    return sum(run(penalty=penalty, seed=seed).pdr for seed in (1, 2, 3)) / 3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else math.inf


def _outside_unit(table: Dict[Any, float]) -> int:
    return sum(1 for value in table.values() if not 0.0 <= value <= 1.0)


def _fig7_cells(key: Tuple[Any, ...], stats: Dict[str, Dict[str, Any]]) -> List[List[Any]]:
    return [[
        *key,
        f"{stats['pdr']['mean']:.3f}",
        f"±{stats['pdr']['ci95']:.3f}",
        f"{stats['average_queue_level']['mean']:.2f}",
        f"{stats['average_delay']['mean'] * 1000:.1f} ms",
    ]]


def _testbed_cells(topology: str) -> Cells:
    def cells(key: Tuple[Any, ...], stats: Dict[str, Dict[str, Any]]) -> List[List[Any]]:
        (mac,) = key
        # Numeric node order: the metric names sort as strings.
        prefix = "pdr_node_"
        nodes = sorted(int(name[len(prefix):]) for name in stats if name.startswith(prefix))
        rows = [
            [topology, mac, node, f"{stats[f'{prefix}{node}']['mean']:.3f}"] for node in nodes
        ]
        return rows + [[topology, mac, "overall", f"{stats['overall_pdr']['mean']:.3f}"]]

    return cells


def _fig21_cells(key: Tuple[Any, ...], stats: Dict[str, Dict[str, Any]]) -> List[List[Any]]:
    _, mac = key
    return [[
        int(stats["num_nodes"]["mean"]),
        mac,
        f"{stats['secondary_pdr']['mean']:.3f}",
        f"{stats['gts_request_success']['mean']:.3f}",
        f"{stats['allocation_rate']['mean']:.2f}/s",
        f"{stats['primary_pdr']['mean']:.3f}",
    ]]


B, C, S = QAction.QBACKOFF, QAction.QCCA, QAction.QSEND

#: Table 4's global rewards as printed in the paper.
_TABLE4_ROWS = {
    (B, S, B): 8,
    (B, C, B): 7,
    (C, S, C): 6,
    (B, B, B): 0,
    (C, B, C): -4,
    (S, B, S): -6,
    (C, C, C): -6,
    (S, C, S): -5,
    (S, S, S): -9,
}

_CSMA = "unslotted-csma"

_TESTBED_PAPER = {"macs": ["qma", _CSMA], "delta": 10.0, "packets": 1000, "seed": 0}


def _testbed(topology: str, figure: int, reduced: Mapping[str, Any], claims: Tuple[Claim, ...]):
    return SweepFigure(
        name=f"testbed-{topology}",
        caption=f"Fig. {figure}: per-node PDR in the {topology} topology",
        experiment=f"testbed-{topology}",
        paper=_TESTBED_PAPER,
        reduced=reduced,
        grid={},
        fixed={"delta": "delta", "packets_per_node": "packets"},
        metrics=("overall_pdr", "pdr_node_*"),
        header=("topology", "mac", "node", "pdr"),
        cells=_testbed_cells(topology),
        claims=claims,
    )


_ROWS = (
    Figure(
        name="table4",
        caption="Table 4: local and global rewards of every joint action",
        func=reward_table,
        paper={"agents": 3},
        reduced={"num_agents": 3},
        claims=(
            Claim("the table lists all 27 joint actions", exactly(27), lambda run: len(run())),
            *(
                Claim(
                    f"{' '.join(a.short_name for a in actions)} has global reward {reward}",
                    exactly(reward),
                    lambda run, actions=actions: run()[actions]["global"],
                )
                for actions, reward in _TABLE4_ROWS.items()
            ),
        ),
    ),
    SweepFigure(
        name="fig7",
        caption="Figs. 7-9 and Sect. 6.2.1: hidden-node PDR, queue, delay and attempts",
        experiment="hidden-node",
        paper={
            "macs": ["qma", "slotted-csma", _CSMA],
            "deltas": [1, 10, 25, 50, 100],
            "packets": 1000,
            "warmup": 100.0,
            "repetitions": 3,
        },
        reduced={"packets_per_node": 120, "warmup": 20.0},
        grid={"delta": "deltas"},
        fixed={"packets_per_node": "packets", "warmup": "warmup"},
        metrics=("pdr", "average_queue_level", "average_delay"),
        header=("delta", "mac", "pdr", "ci95", "avg queue", "avg delay"),
        cells=_fig7_cells,
        claims=(
            Claim("QMA's PDR at δ=25 exceeds 0.9", above(0.9),
                  _value("pdr", mac="qma", delta=25, seed=1)),
            Claim("QMA out-delivers unslotted CSMA/CA at δ=25", above(0),
                  _gap("pdr", "qma", _CSMA, delta=25, seed=1)),
            Claim("QMA out-delivers slotted CSMA/CA at δ=25", above(0),
                  _gap("pdr", "qma", "slotted-csma", delta=25, seed=1)),
            Claim("QMA's PDR at δ=2 exceeds 0.7", above(0.7),
                  _value("pdr", mac="qma", delta=2, seed=1)),
            Claim("unslotted CSMA/CA's PDR at δ=2 exceeds 0.7", above(0.7),
                  _value("pdr", mac=_CSMA, delta=2, seed=1)),
            Claim("Fig. 8: QMA's queue level at δ=50 lies in [0, 8]", between(0, 8),
                  _value("average_queue_level", mac="qma", delta=50, seed=2)),
            Claim("Fig. 8: CSMA/CA's queue level at δ=50 lies in [0, 8]", between(0, 8),
                  _value("average_queue_level", mac=_CSMA, delta=50, seed=2)),
            Claim("Fig. 8: QMA loses fewer packets than CSMA/CA at δ=50", above(0),
                  _gap("pdr", "qma", _CSMA, delta=50, seed=2)),
            Claim("Fig. 9: QMA's delay at δ=50 is positive", above(0),
                  _value("average_delay", mac="qma", delta=50, seed=4)),
            Claim("Fig. 9: CSMA/CA's delay at δ=50 is positive", above(0),
                  _value("average_delay", mac=_CSMA, delta=50, seed=4)),
            Claim("Fig. 9: QMA out-delivers CSMA/CA at δ=50", above(0),
                  _gap("pdr", "qma", _CSMA, delta=50, seed=4)),
            Claim(
                "Sect. 6.2.1: QMA needs at most 1.5x CSMA/CA's attempts at δ=10",
                at_most(1.5),
                lambda run: _ratio(
                    run(mac="qma", delta=10, seed=5).transmission_attempts,
                    run(mac=_CSMA, delta=10, seed=5).transmission_attempts,
                ),
            ),
            Claim("Sect. 6.2.1: QMA's PDR at δ=10 is at most 0.05 below CSMA/CA's",
                  at_least(-0.05), _gap("pdr", "qma", _CSMA, delta=10, seed=5)),
        ),
    ),
    Figure(
        name="fig10",
        caption="Fig. 10: cumulative Q-value per frame",
        func=run_convergence,
        reduced={"delta": 25, "duration": 60.0, "warmup": 10.0, "seed": 1},
        claims=(
            Claim(
                "the cumulative Q-value rises above its initial level",
                above(0),
                lambda run: (
                    max(v for _, v in run().table("q_history")[NODE_A])
                    - run().table("q_history")[NODE_A][0][1]
                ),
            ),
        ),
    ),
    Figure(
        name="fig11",
        caption="Fig. 11: exploration probability over time",
        func=run_convergence,
        reduced={"duration": 45.0, "warmup": 10.0, "seed": 2},
        claims=(
            Claim(
                "δ=100 explores more than δ=1 (max rolling ρ)",
                above(0),
                lambda run: _max_rolling_rho(run(delta=100)) - _max_rolling_rho(run(delta=1)),
            ),
            Claim("ρ never exceeds the 0.3 cap of the exploration table",
                  at_most(0.3 + 1e-9), lambda run: _max_rolling_rho(run(delta=100))),
        ),
    ),
    Figure(
        name="fig12",
        caption="Fig. 12: fluctuating traffic and a late-joining node",
        func=run_fluctuating,
        paper={"duration": 1500.0},
        reduced={
            "duration": 120.0,
            "phase_duration": 30.0,
            "node_c_join_time": 30.0,
            "high_rate": 100.0,
            "low_rate": 10.0,
            "seed": 1,
        },
        claims=(
            Claim("node A's cumulative Q-value moves", above(0),
                  lambda run: _spread(run()[NODE_A])),
            Claim("node C's cumulative Q-value moves", above(0),
                  lambda run: _spread(run()[NODE_C])),
            Claim("late-joining node C's cumulative Q-value rises", above(0),
                  lambda run: run()[NODE_C][-1][1] - run()[NODE_C][0][1]),
        ),
    ),
    Figure(
        name="slots",
        caption="Figs. 13-15: subslot utilisation of the final policy",
        func=run_slot_utilisation,
        paper={"delta": 10.0, "snapshot": 150.0, "duration": 400.0},
        reduced={"snapshot_time": 30.0, "duration": 80.0, "warmup": 10.0},
        claims=(
            *(
                Claim(f"δ={delta}: the final policy uses a subslot", at_least(1),
                      lambda run, d=delta, s=seed: run(delta=d, seed=s)[1].utilised_subslots())
                for delta, seed in ((1, 1), (10, 2), (100, 3))
            ),
            *(
                Claim(f"δ={delta}: the final schedule is collision free", exactly(1),
                      lambda run, d=delta, s=seed: run(delta=d, seed=s)[1].collision_free)
                for delta, seed in ((1, 1), (10, 2))
            ),
            Claim("δ=100: the final policy uses two subslots or more", at_least(2),
                  lambda run: run(delta=100, seed=3)[1].utilised_subslots()),
        ),
    ),
    _testbed(
        "tree", 18,
        reduced={"delta": 10, "packets_per_node": 60, "warmup": 25.0},
        claims=(
            Claim("QMA generates packets", above(0),
                  _value("packets_generated", mac="qma", seed=1)),
            Claim(
                "QMA and CSMA/CA report the same nodes",
                exactly(0),
                lambda run: len(
                    set(run(mac="qma", seed=1).table("pdr_per_node"))
                    ^ set(run(mac=_CSMA, seed=1).table("pdr_per_node"))
                ),
            ),
            Claim("no QMA per-node PDR lies outside [0, 1]", exactly(0),
                  lambda run: _outside_unit(run(mac="qma", seed=1).table("pdr_per_node"))),
            Claim("QMA delivers packets", above(0), _value("overall_pdr", mac="qma", seed=1)),
            Claim("CSMA/CA's overall PDR exceeds 0.3", above(0.3),
                  _value("overall_pdr", mac=_CSMA, seed=1)),
        ),
    ),
    _testbed(
        "star", 19,
        reduced={"delta": 4, "packets_per_node": 40, "warmup": 25.0},
        claims=(
            *(
                claim
                for mac in ("qma", _CSMA)
                for claim in (
                    Claim(f"{mac} generates packets", above(0),
                          _value("packets_generated", mac=mac, seed=1)),
                    Claim(f"{mac}'s overall PDR lies in [0, 1]", between(0, 1),
                          _value("overall_pdr", mac=mac, seed=1)),
                )
            ),
            Claim("CSMA/CA's overall PDR exceeds 0.5", above(0.5),
                  _value("overall_pdr", mac=_CSMA, seed=1)),
        ),
    ),
    SweepFigure(
        name="fig21",
        caption="Figs. 21-22: DSME secondary traffic and GTS requests vs. network size",
        experiment="scalability",
        paper={
            "macs": ["qma", "slotted-csma", _CSMA],
            "rings": [1, 2, 3, 4],
            "duration": 300.0,
            "warmup": 200.0,
            "seed": 0,
        },
        reduced={"rings": 1, "duration": 90.0, "warmup": 45.0},
        grid={"rings": "rings"},
        fixed={"duration": "duration", "warmup": "warmup"},
        metrics=(
            "num_nodes", "secondary_pdr", "gts_request_success", "allocation_rate", "primary_pdr",
        ),
        header=(
            "nodes", "mac", "secondary pdr", "gts-req success", "(de)alloc rate", "primary pdr",
        ),
        cells=_fig21_cells,
        claims=(
            *(
                claim
                for mac in ("qma", "slotted-csma", _CSMA)
                for claim in (
                    Claim(f"{mac}: one ring has 7 nodes", exactly(7),
                          _value("num_nodes", mac=mac, seed=1)),
                    Claim(
                        f"{mac}: secondary messages are sent", above(0),
                        lambda run, m=mac: run(mac=m, seed=1).details["secondary"].messages_sent,
                    ),
                    Claim(f"{mac}: the secondary PDR lies in [0, 1]", between(0, 1),
                          _value("secondary_pdr", mac=mac, seed=1)),
                )
            ),
            *(
                claim
                for mac in ("qma", _CSMA)
                for claim in (
                    Claim(
                        f"Fig. 22, {mac}: GTS requests are sent", above(0),
                        lambda run, m=mac: run(mac=m, seed=2).details["secondary"].requests_sent,
                    ),
                    Claim(f"Fig. 22, {mac}: the GTS-request success lies in [0, 1]",
                          between(0, 1), _value("gts_request_success", mac=mac, seed=2)),
                )
            ),
        ),
    ),
    Figure(
        name="fig26",
        caption="Fig. 26: expected handshake messages vs. CAP success probability",
        func=handshake_expected_messages,
        paper={"probabilities": list(PAPER_PROBABILITIES), "retries": 3},
        reduced={"probabilities": PAPER_PROBABILITIES},
        claims=(
            Claim("3 messages at p = 1", exactly(3.0), lambda run: run()[1.0]),
            Claim("3.33 messages at p = 0.9", Band(3.32, 3.34, open_low=True, open_high=True),
                  lambda run: run()[0.9]),
            Claim("the curve never rises with p", exactly(0),
                  lambda run: _rises(run())),
            Claim("p = 0.1 needs over 10x the messages of p = 1", above(10),
                  lambda run: _ratio(run()[0.1], run()[1.0])),
        ),
    ),
    Figure(
        name="ablation-exploration",
        caption="Sect. 4.2: parameter-based exploration vs. ε-greedy and a constant rate",
        func=run_exploration_ablation,
        reduced={"seed": 7, "rate": 50.0, "packets_per_node": 120, "warmup": 20.0},
        claims=(
            Claim("parameter-based exploration's PDR exceeds 0.7", above(0.7),
                  lambda run: run(strategy="parameter-based")),
            Claim(
                "parameter-based exploration is within 0.1 of the best strategy",
                at_least(-0.1),
                lambda run: run(strategy="parameter-based")
                - max(run(strategy=name) for name in EXPLORATION_STRATEGIES),
            ),
        ),
    ),
    Figure(
        name="ablation-penalty",
        caption="Eq. 5: the penalty ξ vs. the plain Lauer-Riedmiller update",
        func=lambda penalty, **kwargs: run_hidden_node(
            qma_config=QmaConfig(penalty=penalty), **kwargs
        ),
        reduced={"mac": "qma", "delta": 50, "packets_per_node": 120, "warmup": 20.0},
        claims=(
            Claim(
                "ξ = 2 delivers no worse than ξ = 0 (mean PDR of seeds 1-3, -0.02)",
                at_least(-0.02),
                lambda run: _mean_pdr(run, 2.0) - _mean_pdr(run, 0.0),
            ),
            Claim("ξ = 2's mean PDR over seeds 1-3 exceeds 0.85", above(0.85),
                  lambda run: _mean_pdr(run, 2.0)),
        ),
    ),
    Figure(
        name="ablation-startup",
        caption="Sect. 4.3: cautious startup for a late-joining node",
        func=run_startup_ablation,
        reduced={"seed": 9, "rate": 25.0, "join_time": 20.0, "duration": 60.0},
        claims=(
            Claim("with cautious startup node A keeps a PDR above 0.5", above(0.5),
                  lambda run: run(startup_subslots=108)),
            Claim(
                "cautious startup costs node A at most 0.1 PDR",
                at_least(-0.1),
                lambda run: run(startup_subslots=108) - run(startup_subslots=0),
            ),
        ),
    ),
)

#: Every row by name.
FIGURES: Dict[str, Figure] = {figure.name: figure for figure in _ROWS}
