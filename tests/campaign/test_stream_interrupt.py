"""Interrupt safety of CampaignRunner.stream: Ctrl-C must not orphan state.

A ``KeyboardInterrupt`` raised in the consumer loop (typically inside a
sink write while the user hits Ctrl-C) has to leave the runner's worker
pool terminated and every sink flushed and closed — otherwise an
interrupted checkpointed sweep leaves unreadable output files and zombie
worker processes.
"""

from __future__ import annotations

import pytest

from repro.campaign.frame import JsonlRecordSink, iter_jsonl
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Sweep

FIXED = {
    "packets_per_node": 2,
    "warmup": 0.2,
    "drain_time": 0.1,
    "management_period": 0.5,
}


def make_sweep():
    return Sweep(
        experiment="hidden-node",
        macs=["unslotted-csma"],
        grid={"delta": [50.0, 100.0]},
        fixed=FIXED,
        seeds=[0, 1],
    )


class TrippingSink:
    """Records writes, raises the given exception on the Nth write."""

    def __init__(self, trip_at: int, exc: BaseException) -> None:
        self.trip_at = trip_at
        self.exc = exc
        self.writes = 0
        self.closed = False

    def write(self, record) -> None:
        self.writes += 1
        if self.writes == self.trip_at:
            raise self.exc

    def close(self) -> None:
        self.closed = True


@pytest.mark.parametrize("exc_type", [KeyboardInterrupt, RuntimeError])
def test_interrupt_closes_sinks_and_pool(exc_type):
    runner = CampaignRunner(jobs=2)
    tripping = TrippingSink(2, exc_type())
    witness = TrippingSink(10**9, RuntimeError())  # never trips, just observes
    with pytest.raises(exc_type):
        runner.stream(make_sweep(), sinks=[tripping, witness])
    assert tripping.closed and witness.closed
    assert runner._pool is None, "worker pool must be terminated on interrupt"


def test_interrupted_jsonl_output_stays_loadable(tmp_path):
    """The flushed prefix of an interrupted JSONL stream reads back cleanly."""
    path = str(tmp_path / "partial.jsonl")
    runner = CampaignRunner()
    jsonl = JsonlRecordSink(path)
    tripping = TrippingSink(3, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        # jsonl first: it sees each record before the tripping sink raises.
        runner.stream(make_sweep(), sinks=[jsonl, tripping])
    loaded = list(iter_jsonl(path))
    assert len(loaded) == 3  # every record written before the interrupt
    assert tripping.closed


def test_serial_interrupt_also_closes_sinks():
    runner = CampaignRunner(jobs=1)
    tripping = TrippingSink(1, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        runner.stream(make_sweep(), sinks=[tripping])
    assert tripping.closed
