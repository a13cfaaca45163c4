"""Seed-group execution.

A campaign's dominant workload is "many seeds × one configuration", and
``--batch-seeds N`` groups up to N such testbed seeds into one dispatch task
(:mod:`repro.campaign.batch_runner`).  :class:`SeedBatchExecutor` runs a
group's prepared lanes one after another, each to its end time, so every
record is the one a per-seed run produces.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

__all__ = ["SeedBatchExecutor"]


class SeedBatchExecutor:
    """Runs prepared same-configuration scenario lanes one after another.

    ``run`` takes handles with ``sim``/``end_time``/``finish()``
    (:class:`repro.experiments.testbed.PreparedTopologyRun` is the canonical
    shape), drives each lane's simulator to its end time, and returns their
    finalized reports in input order.
    """

    def __init__(self) -> None:
        #: Read by perfbench's tracer: lanes never run together, so no run
        #: falls back from anything and this stays None.
        self.last_fallback_reason: Optional[str] = None

    def run(self, prepared: Sequence[Any]) -> List[Any]:
        lanes = list(prepared)
        for lane in lanes:
            lane.sim.run_until(lane.end_time)
        return [lane.finish() for lane in lanes]
