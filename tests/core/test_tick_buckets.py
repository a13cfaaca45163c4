"""QMA tick buckets: the ticks due at one instant share one heap entry.

Each tick still draws its own sequence number; the bucket runs its ticks in
seq order and drains any heap event keyed before a later tick first, so the
event order is the one a heap entry per tick would give.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.config import QmaConfig
from repro.core.mac import QmaMac, _run_tick_bucket
from repro.experiments.testbed import prepare_star
from repro.phy.channel import WirelessChannel
from repro.phy.frames import Frame, FrameKind
from repro.phy.radio import Radio
from repro.sim import batch as batch_mod
from repro.sim.engine import Simulator

SUBSLOT = 2e-3


def _config(**overrides):
    defaults = dict(num_subslots=8, subslot_duration=SUBSLOT, cautious_startup_subslots=0)
    defaults.update(overrides)
    return QmaConfig(**defaults)


def _macs(sim, count=3):
    """``count`` fully connected QMA nodes with ids 1..count, not started."""
    channel = WirelessChannel(sim)
    radios = [Radio(sim, channel, node) for node in range(1, count + 1)]
    for a in radios:
        for b in radios:
            if a.node_id < b.node_id:
                channel.connect(a.node_id, b.node_id)
    return [QmaMac(sim, radio, config=_config()) for radio in radios]


def _tick_buckets_on_heap(sim):
    return [entry for entry in sim._queue if entry[2] is _run_tick_bucket]


def test_heap_event_between_two_ticks_of_a_bucket_runs_between_them():
    sim = Simulator(seed=1)
    mac1, mac2 = _macs(sim, 2)
    seen = []
    mac1.start()
    sim.schedule(0.0, lambda: seen.append((mac1._counter, mac2._counter)))
    mac2.start()
    # One bucket for both t=0 ticks, plus the probe between them.
    assert sim.pending_events() == 2
    assert [len(entry[3]) for entry in _tick_buckets_on_heap(sim)] == [2]

    assert sim.step()  # the whole bucket, with the probe it interleaves
    assert seen == [(1, 0)]
    assert (mac1._counter, mac2._counter) == (1, 1)
    assert sim.events_executed == 3
    assert next(copy.copy(sim._seq)) == 5  # 2 start ticks, probe, 2 re-arms


def test_stopped_member_noops_and_an_off_grid_restart_opens_its_own_bucket():
    sim = Simulator(seed=2)
    mac1, mac2, mac3 = _macs(sim)
    for mac in (mac1, mac2, mac3):
        mac.start()
    sim.run_until(0.021)
    counters = [mac._counter for mac in (mac1, mac2, mac3)]
    assert counters == [11, 11, 11]

    mac2.stop()
    sim.run_until(0.041)
    # The stale member fired once more as a no-op; the others kept ticking.
    assert [mac._counter for mac in (mac1, mac2, mac3)] == [21, 11, 21]
    assert sim.events_executed == 11 * 3 + 10 * 2 + 1

    mac2.start()  # at t=0.041, off the 2 ms grid
    # The grid bucket holds mac1 and mac3; the restart's tick is alone.
    assert [len(sim._tick_buckets[t]) for t in sorted(sim._tick_buckets)] == [1, 2]
    assert sim._tick_buckets[0.041][0][1] is mac2
    sim.run_until(0.0605)
    assert [mac._counter for mac in (mac1, mac2, mac3)] == [31, 21, 31]
    assert all(len(entry[3]) == 1 for entry in _tick_buckets_on_heap(sim)
               if entry[3][0][1] is mac2)


def _stop_run(interrupt: bool):
    sim = Simulator(seed=3)
    mac1, mac2, mac3 = _macs(sim)
    for k in range(6):
        frame = Frame(FrameKind.DATA, src=1, dst=2, payload_bytes=20)
        sim.schedule(0.004 * k, mac1.send, frame)
    mac1.start()
    if interrupt:
        sim.schedule(0.0, sim.stop)
    mac2.start()
    mac3.start()
    return sim, (mac1, mac2, mac3)


#: events_executed, seqs drawn, per-node ticks, mac1's deliveries and
#: per-node Q-table updates after the resumed run.
PINNED_STOP_RUN = (90, 93, [25, 25, 25], 2, [24, 0, 0])


def test_stop_inside_a_bucket_leaves_its_remaining_ticks_pending():
    sim, macs = _stop_run(interrupt=True)
    sim.run_until(0.05)
    assert sim.now == 0.0
    assert [mac._counter for mac in macs] == [1, 0, 0]
    # mac2's and mac3's t=0 ticks went back on the heap as one bucket.
    assert sorted(
        (entry[0], [tick[1].node_id for tick in entry[3]])
        for entry in _tick_buckets_on_heap(sim)
    ) == [(0.0, [2, 3]), (SUBSLOT, [1])]

    sim.run_until(0.05)
    counters = (
        sim.events_executed,
        next(copy.copy(sim._seq)),
        [mac._counter for mac in macs],
        macs[0].stats.tx_success,
        [mac.qtable.updates for mac in macs],
    )
    assert counters == PINNED_STOP_RUN
    # The same run without the interrupting event: one event fewer.
    sim, macs = _stop_run(interrupt=False)
    sim.run_until(0.05)
    assert sim.events_executed == PINNED_STOP_RUN[0] - 1
    assert [mac._counter for mac in macs] == PINNED_STOP_RUN[2]


def test_seed_batch_bootstrap_registers_idle_first_ticks_through_the_facade(monkeypatch):
    lanes = [
        prepare_star(mac="qma", seed=seed, packets_per_node=2, warmup=0.5, delta=40.0,
                     max_duration=4.0, qma_config=QmaConfig(cautious_startup_subslots=0))
        for seed in (0, 1)
    ]
    for lane in lanes:
        for mac in lane.built.network.macs.values():
            assert mac.queue.empty and not mac.startup.active
    registered = []
    override = batch_mod.BatchQmaMac._schedule_next_tick

    def spy(mac):
        registered.append((mac._bl, mac._bn))
        override(mac)

    monkeypatch.setattr(batch_mod.BatchQmaMac, "_schedule_next_tick", spy)
    store = batch_mod._BatchStore(lanes)
    batch_mod._LockstepKernel(store)._bootstrap()

    num_nodes = store.num_nodes
    assert sorted(registered) == [(lane, node) for lane in range(2) for node in range(num_nodes)]
    assert not np.isnan(store.tick_time).any()
    assert (store.tick_seq >= 0).all()
    for lane in lanes:
        assert not lane.sim._tick_buckets
        assert not _tick_buckets_on_heap(lane.sim)
