"""Experiment runners — one per figure/table of the paper's evaluation.

Every runner builds its own simulator, network and traffic through
:class:`repro.scenario.ScenarioBuilder`, instruments the run with metric
collectors resolved from :mod:`repro.metrics.registry` and returns a typed
:class:`~repro.metrics.report.SimReport` with the metrics the
corresponding figure plots (``collectors=`` selects a different set).  A
runner executes one run; sweeps over MACs, parameters and seeds go through
:class:`repro.campaign.Sweep` and :class:`repro.campaign.CampaignRunner`
(``qma-repro sweep``), whose family table maps each experiment family onto
its runner.  :mod:`repro.experiments.figures` holds each figure's runs at
paper size (the CLI defaults) and at reduced size (the tier-1 claims).
"""

from repro.experiments.base import MAC_KINDS, make_mac_factory
from repro.experiments.hidden_node import (
    run_convergence,
    run_fluctuating,
    run_hidden_node,
    run_slot_utilisation,
)
from repro.experiments.testbed import run_star, run_tree
from repro.experiments.scalability import run_scalability
from repro.experiments.handshake import handshake_expected_messages, run_handshake
from repro.metrics.report import SimReport

__all__ = [
    "MAC_KINDS",
    "SimReport",
    "handshake_expected_messages",
    "make_mac_factory",
    "run_convergence",
    "run_fluctuating",
    "run_handshake",
    "run_hidden_node",
    "run_scalability",
    "run_slot_utilisation",
    "run_star",
    "run_tree",
]
