"""Experiment runners — one per figure/table of the paper's evaluation.

Every runner builds its own simulator, network and traffic through
:class:`repro.scenario.ScenarioBuilder`, instruments the run with metric
collectors resolved from :mod:`repro.metrics.registry` and returns a typed
:class:`~repro.metrics.report.SimReport` with the metrics the
corresponding figure plots (``collectors=`` selects a different set).  The
benchmarks in ``benchmarks/`` call these runners with reduced workloads so
that the whole suite regenerates every figure's data in minutes; the CLI
(`qma-repro`) exposes the same runners with paper-scale defaults.
"""

from repro.experiments.base import (
    MAC_KINDS,
    make_mac_factory,
    repeat_scalar,
    summarize,
)
from repro.experiments.hidden_node import (
    run_convergence,
    run_fluctuating,
    run_hidden_node,
    run_slot_utilisation,
    sweep_hidden_node,
)
from repro.experiments.testbed import (
    compare_energy_proxy,
    run_star,
    run_tree,
    sweep_testbed,
)
from repro.experiments.scalability import run_scalability, sweep_scalability
from repro.experiments.handshake import handshake_expected_messages, run_handshake
from repro.metrics.report import SimReport

__all__ = [
    "MAC_KINDS",
    "SimReport",
    "compare_energy_proxy",
    "handshake_expected_messages",
    "make_mac_factory",
    "repeat_scalar",
    "run_convergence",
    "run_fluctuating",
    "run_handshake",
    "run_hidden_node",
    "run_scalability",
    "run_slot_utilisation",
    "run_star",
    "run_tree",
    "summarize",
    "sweep_hidden_node",
    "sweep_scalability",
    "sweep_testbed",
]
