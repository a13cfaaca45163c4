"""The benchmark's four campaign workloads.

Every workload draws its simulation seeds from a fixed pool whose record
digests are pinned in ``digests.json``.  The workload seed only shuffles
the pool and cuts it into units, so any workload seed yields inputs whose
outputs can be checked exactly; the same workload seed always yields the
same units.  A *unit* is one timed call into the program: one serial
campaign, one seed group, or one checkpointed sweep.

All workloads run serially on one pinned vCPU.  Pooled multi-worker
dispatch is left out: its time spreads over two vCPUs, and the reference
kernel cannot normalise that.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.records import RunRecord
from repro.campaign.runner import CampaignRunner, execute_scenario
from repro.campaign.spec import Scenario, Sweep
from repro.service.checkpoint import run_checkpointed
from repro.service.journal import CheckpointJournal
from repro.service.manifest import record_digest
from repro.service.supervisor import make_supervised

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass(frozen=True)
class Unit:
    """One timed call: the simulation seeds it runs, in order."""

    index: int
    seeds: Tuple[int, ...]
    #: Short-sweep only: resume a journal whose first half is complete.
    resume: bool = False
    #: The last unit of a pass over the whole seed pool.
    pass_end: bool = False


@dataclass
class UnitResult:
    records: List[RunRecord]
    #: Runs the timed call executed (a resumed sweep replays the others).
    executed: int


class Workload:
    """A campaign workload: its scenarios, its unit shape and its checks."""

    name = "abstract"
    experiment = "hidden-node"
    mac = "qma"
    propagation: Optional[str] = None
    params: Mapping[str, Any] = {}
    #: Simulation seeds to choose from (``digests.json`` pins each one).
    candidate_seeds: Sequence[int] = ()
    #: Keep only the first this many candidates that pass the guard.
    pool_size: Optional[int] = None
    seeds_per_unit = 1
    #: Kernel repeats timed after each unit, sized so the reference takes
    #: roughly a quarter of the time; a smaller share normalises worse.
    ref_repeats = 10
    #: Time the kernel's vector mix (see :mod:`refkernel`).
    ref_vector = False

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    # ------------------------------------------------------------- inputs
    def scenario(self, seed: int) -> Scenario:
        return Scenario(
            self.experiment,
            mac=self.mac,
            seed=seed,
            params=dict(self.params),
            propagation=self.propagation,
        )

    def sweep(self, seeds: Sequence[int]) -> Sweep:
        return Sweep(
            self.experiment,
            macs=(self.mac,),
            fixed=dict(self.params),
            seeds=tuple(seeds),
            propagations=(self.propagation,),
        )

    def units(self, pool: Sequence[int], seed: int) -> Iterator[Unit]:
        """Endless units over the pool, shuffled and cut by ``seed``.

        Each pass shuffles the whole pool, so a unit never repeats a seed.
        """
        if not pool or len(pool) % self.seeds_per_unit:
            raise ValueError(
                f"{self.name}: pool of {len(pool)} seeds does not split into "
                f"units of {self.seeds_per_unit}"
            )
        rng = random.Random(seed)
        size = self.seeds_per_unit
        index = 0
        while True:
            order = list(pool)
            rng.shuffle(order)
            for start in range(0, len(order), size):
                yield Unit(
                    index,
                    tuple(order[start : start + size]),
                    resume=self.resumes(index),
                    pass_end=start + size == len(order),
                )
                index += 1

    def resumes(self, index: int) -> bool:
        return False

    # ---------------------------------------------------------- execution
    def prepare(self) -> None:
        """Build what a warm campaign keeps between calls (set-up time)."""

    def before(self, unit: Unit) -> None:
        """Untimed preparation of one unit."""

    def run(self, unit: Unit) -> UnitResult:
        """The timed call."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`prepare` built."""

    # -------------------------------------------------------------- checks
    def guard(self, record: RunRecord) -> Optional[str]:
        """A workload-specific sanity condition on one record (None: holds)."""
        return None


class _RunnerWorkload(Workload):
    """A serial campaign through one warm :class:`CampaignRunner`."""

    batch_seeds = 1

    def prepare(self) -> None:
        self.runner = CampaignRunner(jobs=1, batch_seeds=self.batch_seeds)

    def run(self, unit: Unit) -> UnitResult:
        records = self.runner.run(self.sweep(unit.seeds)).records
        return UnitResult(records, len(records))

    def close(self) -> None:
        self.runner.close()


class HiddenQma(_RunnerWorkload):
    """Fig. 7 hidden-node QMA runs: the QMA tick and the event engine dominate."""

    name = "hidden-qma"
    params = {"delta": 10.0, "packets_per_node": 30, "warmup": 5.0}
    candidate_seeds = range(24)
    ref_repeats = 12


class DsmeRings(_RunnerWorkload):
    """DSME on 2 rings (19 nodes): multi-hop QMA in the CAP, GTS allocation."""

    name = "dsme-rings"
    experiment = "scalability"
    params = {"rings": 2, "duration": 10.0, "warmup": 2.0}
    candidate_seeds = range(40)
    #: Few seeds keep one pass short enough to finish two in a run.
    pool_size = 6
    ref_repeats = 80

    def guard(self, record: RunRecord) -> Optional[str]:
        if not record.metrics.get("allocation_rate", 0.0) > 0.0:
            return "allocation_rate is 0: the run ended before any GTS allocation"
        return None


class StarBatch(_RunnerWorkload):
    """Testbed-star QMA with fading through the ``--batch-seeds`` lockstep engine."""

    name = "star-batch"
    experiment = "testbed-star"
    propagation = "fading"
    params = {"packets_per_node": 3, "warmup": 0.5, "max_duration": 1.5}
    candidate_seeds = range(16)
    seeds_per_unit = 4
    batch_seeds = 4
    ref_repeats = 6
    ref_vector = True


class ShortSweep(Workload):
    """``qma-repro sweep --checkpoint`` over very short unslotted-CSMA runs.

    Each unit builds the default supervised backend and calls
    :func:`run_checkpointed`, as the CLI does.  Half the units resume a
    journal whose first half was written before the timer started, so
    digest-verified replay runs beside appends.
    """

    name = "short-sweep"
    mac = "unslotted-csma"
    params = {
        "delta": 50.0,
        "packets_per_node": 2,
        "warmup": 0.2,
        "drain_time": 0.1,
        "management_period": 0.5,
    }
    candidate_seeds = range(256)
    seeds_per_unit = 64
    ref_repeats = 8
    #: The options ``qma-repro sweep --checkpoint`` passes by default.
    backend_options = {"jobs": 1, "chunksize": "auto", "build_cache": True, "batch_seeds": 1}

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        self.journal_path = os.path.join(workdir, "short-sweep.journal.jsonl")
        self.events: List[Dict[str, Any]] = []
        self.quarantined = 0

    def resumes(self, index: int) -> bool:
        # cold, resume, resume, cold: half the units resume, and the traced
        # (even) units as well as the untraced (odd) ones see both kinds.
        return index % 4 in (1, 2)

    def before(self, unit: Unit) -> None:
        if os.path.exists(self.journal_path):
            os.remove(self.journal_path)
        if unit.resume:
            sweep = self.sweep(unit.seeds)
            journal = CheckpointJournal.create(self.journal_path, sweep)
            try:
                for index, scenario in enumerate(sweep.scenarios()[: sweep.size // 2]):
                    journal.append(index, execute_scenario(scenario))
            finally:
                journal.close()

    def run(self, unit: Unit) -> UnitResult:
        backend = make_supervised(self.backend_options, on_event=self.events.append)
        try:
            outcome = run_checkpointed(
                self.sweep(unit.seeds), self.journal_path, backend=backend, collect=True
            )
        finally:
            backend.close()
        self.quarantined += len(outcome.quarantined)
        return UnitResult(list(outcome.records or []), outcome.executed)

    def close(self) -> None:
        if os.path.exists(self.journal_path):
            os.remove(self.journal_path)


WORKLOADS = {cls.name: cls for cls in (HiddenQma, DsmeRings, StarBatch, ShortSweep)}


# ------------------------------------------------------------------ digests
def load_digests(path: str = DIGESTS_PATH) -> Dict[str, Dict[str, str]]:
    """Pinned ``{workload: {seed: record digest}}``."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def digest_of(record: RunRecord) -> str:
    """The journal's content digest of one record."""
    return record_digest(record.to_dict())


def check_unit(
    workload: Workload, unit: Unit, records: Sequence[RunRecord], pinned: Mapping[str, str]
) -> Tuple[int, List[str]]:
    """``(failed runs, problems)`` of one unit's records; ``(0, [])`` if verified.

    A run fails when its record is missing, its digest differs from the
    pinned one, or the workload's guard rejects it.  Each problem names
    the unit and the diverging simulation seed.
    """
    problems: List[str] = []
    failed = 0
    got = [record.scenario.seed for record in records]
    if got != list(unit.seeds):
        problems.append(f"unit {unit.index}: records for seeds {got}, expected {list(unit.seeds)}")
        failed += len(set(unit.seeds) - set(got))
    for record in records:
        seed = record.scenario.seed
        want = pinned.get(str(seed))
        have = digest_of(record)
        failures = []
        if want != have:
            failures.append(f"record digest {have} != pinned {want}")
        guard = workload.guard(record)
        if guard:
            failures.append(guard)
        if failures:
            failed += 1
            problems.append(f"unit {unit.index}: seed {seed}: " + "; ".join(failures))
    return failed, problems


def pin_digests(workdir: str, path: str = DIGESTS_PATH) -> Dict[str, Dict[str, str]]:
    """Re-pin every workload's pool by running each seed serially.

    A seed joins the pool only if its record passes the workload's guard
    (for dsme-rings: some GTS allocation happened).  Records come from
    plain :func:`execute_scenario` calls, so the batch and checkpoint paths
    are checked against the serial path.
    """
    digests: Dict[str, Dict[str, str]] = {}
    for name, cls in WORKLOADS.items():
        workload = cls(workdir)
        table: Dict[str, str] = {}
        for seed in workload.candidate_seeds:
            if len(table) == workload.pool_size:
                break
            record = execute_scenario(workload.scenario(seed))
            if workload.guard(record) is None:
                table[str(seed)] = digest_of(record)
        digests[name] = table
    document = {
        "note": "record digests of each workload's seed pool; re-pin with run.py --pin",
        "digests": digests,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return digests
