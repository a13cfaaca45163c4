"""Campaign execution over a persistent process-pool executor.

Every scenario is an independent simulation seeded from its own master
seed, so scenarios can run in any order on any number of workers and still
produce bit-identical results — :class:`CampaignRunner` only has to keep
the *record* order deterministic, which mapping over the sweep's
deterministic expansion order guarantees.

The worker entry point :func:`execute_scenario` is a module-level function
(picklable) that looks the scenario's experiment family up in one family
table and calls the family's ``run_*`` runner with the scenario's MAC,
seed, propagation axis, ``metrics`` collectors (default: the family
module's ``DEFAULT_COLLECTORS``) and parameters; the record's scalar
metrics are the resulting report's scalars plus ``sim_time``.  A record
keeps only scalars, so its run attaches only the collectors that provide
one (:func:`record_collectors`); :func:`scenario_report` attaches them all
and returns the series and tables too.  The same table answers which
metrics a family can emit (:func:`experiment_metric_names`).

:meth:`CampaignRunner.stream` consumes records as they finish (in order)
and hands them to :class:`~repro.campaign.frame.RecordSink` objects —
JSONL/CSV export and grouped aggregation then run in constant memory, so a
million-run sweep never materialises its record list.

Warm workers
------------
Orchestration must not dominate short runs, so the runner owns one forking
:class:`~concurrent.futures.ProcessPoolExecutor` for its lifetime: workers
are created once (and reused across calls), the sweep's shared *scenario
template* (experiment, fixed parameters, collector set) is shipped once
through the executor's initializer, and each run crosses the pipe as just
its ``(mac, propagation, seed, axis-values)`` delta, in adaptively sized
chunks (``max(1, n // (jobs * 8))`` by default, overridable via
``chunksize``), at most ``2 * jobs`` chunks in flight.
The executor watches its workers' exit: one that dies mid-dispatch fails
the dispatch with :class:`WorkerDied` (naming its pid and exit code)
instead of a hang; one that died between dispatches is replaced, with the
whole executor, when the next dispatch starts.
Call :meth:`CampaignRunner.close` (or use the runner as a context
manager) to release the workers early; the executor also reclaims them
when the runner is garbage collected.

Build-once / run-many
---------------------
Per-run *construction* (topology factory, O(n²) propagation-derived links,
routing tree) depends only on the configuration half of a scenario, never
on the master seed, the MAC or the channel settings — so every worker keeps a
small LRU of construction-artifact bundles
(:data:`repro.scenario.artifacts.ARTIFACT_CACHE`, configured through the
pool initializer) and sweeps are dispatched in *configuration-affinity
order*: runs sharing a cache key are sorted consecutively (stable, so each
group keeps expansion order) and land in the same chunk, while records are
re-emitted in the original deterministic expansion order.  Results are
bit-identical with the cache on and off; ``build_cache=False``
(``--no-build-cache``) restores plain per-run construction and pure
expansion-order dispatch.
"""

from __future__ import annotations

import fnmatch
import functools
import itertools
import multiprocessing
import os
import pickle
import signal
import sys
from collections import deque
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.campaign.frame import RecordSink
from repro.campaign.records import CampaignResult, RunRecord
from repro.campaign.spec import (
    EXPERIMENT_KINDS,
    Scenario,
    Sweep,
    construction_affinity_key,
    construction_seed_dependent,
    construction_values,
)
from repro.experiments import hidden_node, scalability, sinr_hidden_node, testbed
from repro.metrics.base import MetricCollector
from repro.metrics.registry import build_collectors
from repro.metrics.report import SimReport
from repro.scenario.artifacts import ARTIFACT_CACHE

#: Default bound on retained trace records for traced campaign runs; long
#: sweeps with ``trace=True`` then drop (and count) the excess instead of
#: exhausting memory silently.  Pass ``trace_limit`` explicitly to change.
DEFAULT_TRACE_LIMIT = 250_000

#: Affinity-ordered dispatch materialises the sweep's delta list (to sort
#: it) and may buffer out-of-order records while re-emitting them in
#: expansion order; above this sweep size the runner keeps plain expansion
#: order so arbitrarily large sweeps stay constant-memory (workers still
#: cache by key, they just see fewer consecutive same-key runs).
AFFINITY_REORDER_LIMIT = 100_000

#: The re-emission buffer holds at most as many records as the dispatch
#: permutation displaces any single run; permutations displacing more than
#: this are not worth the memory (e.g. seed-grouped fading sweeps over
#: multiple MACs, where the displacement grows with the sweep) and fall
#: back to expansion-order dispatch.
AFFINITY_MAX_DISPLACEMENT = 10_000


def _report_metrics(report: SimReport, traced: bool) -> Dict[str, float]:
    """Flatten a report into the record's scalar metric dictionary.

    Traced runs always carry ``trace_dropped`` (even when 0) so that every
    record of a traced sweep has the same metric set — streaming CSV fixes
    its header from the first record.
    """
    metrics = {name: float(value) for name, value in report.scalars.items()}
    metrics["sim_time"] = report.duration
    if traced or report.trace_dropped:
        metrics["trace_dropped"] = float(report.trace_dropped)
    return metrics


def _campaign_params(scenario: Scenario) -> Dict[str, Any]:
    """Runner kwargs for a scenario, with the campaign trace bound applied."""
    params = dict(scenario.params)
    if params.get("trace") and "trace_limit" not in params:
        params["trace_limit"] = DEFAULT_TRACE_LIMIT
    return params


#: Experiment family -> (runner, module holding the family's
#: ``DEFAULT_COLLECTORS`` and ``COLLECTOR_OVERRIDES``).  Every runner takes
#: ``mac``, ``seed``, ``propagation`` and ``collectors`` plus the
#: scenario's parameters as keywords and returns a :class:`SimReport`.
_FAMILIES: Dict[str, Tuple[Callable[..., SimReport], ModuleType]] = {
    "hidden-node": (hidden_node.run_hidden_node, hidden_node),
    "sinr-hidden-node": (sinr_hidden_node.run_sinr_hidden_node, sinr_hidden_node),
    "testbed-tree": (testbed.run_tree, testbed),
    "testbed-star": (testbed.run_star, testbed),
    "scalability": (scalability.run_scalability, scalability),
}

#: Metrics every record can carry regardless of the collector set.
_IMPLICIT_METRICS = ("sim_time", "trace_dropped")


def _family_collectors(
    experiment: str, collectors: Optional[Sequence[str]]
) -> Tuple[Sequence[str], List[MetricCollector]]:
    """The collector names the experiment runs with ``collectors`` (None:
    its defaults) and their instances, built with the family's overrides."""
    try:
        _, module = _FAMILIES[experiment]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment!r}; expected one of {EXPERIMENT_KINDS}"
        ) from None
    chosen = module.DEFAULT_COLLECTORS if collectors is None else collectors
    return chosen, build_collectors(chosen, module.COLLECTOR_OVERRIDES)


def experiment_metric_names(
    experiment: str,
    collectors: Optional[Sequence[str]] = None,
) -> Tuple[str, ...]:
    """Scalar names (patterns included, e.g. ``pdr_node_*``) the given
    experiment emits with the given collector set (None: its defaults).

    Derived from the collector registry's ``provides`` declarations, so a
    newly registered collector is validated with zero campaign changes.
    """
    names: List[str] = []
    for collector in _family_collectors(experiment, collectors)[1]:
        for name in collector.provides():
            if name not in names:
                names.append(name)
    names.extend(_IMPLICIT_METRICS)
    return tuple(names)


@functools.lru_cache(maxsize=128)
def record_collectors(
    experiment: str, collectors: Optional[Tuple[str, ...]]
) -> Tuple[str, ...]:
    """The collectors a record run attaches: those of ``collectors`` (None:
    the experiment's defaults) whose instance, built with the family's
    overrides, provides at least one scalar.

    A record keeps only scalars, so a collector providing none (``convergence``
    and ``slots`` at their defaults) would only cost the run time.  Cached,
    so a run pays no collector construction for the selection.
    """
    chosen, built = _family_collectors(experiment, collectors)
    return tuple(name for name, collector in zip(chosen, built) if collector.provides())


def is_known_metric(
    experiment: str,
    metric: str,
    collectors: Optional[Sequence[str]] = None,
) -> bool:
    """Whether ``metric`` can occur in records of the given experiment family
    when instrumented with the given collector set (None: its defaults).

    False (not an error) for unknown experiment families, matching the
    pre-redesign lookup-table behaviour.
    """
    if experiment not in _FAMILIES:
        return False
    for name in experiment_metric_names(experiment, collectors):
        if name == metric or ("*" in name and fnmatch.fnmatchcase(metric, name)):
            return True
    return False


#: Opt-in fault-injection hook (installed by :func:`repro.service.faults.
#: install`): called with each scenario about to execute, in the executing
#: process.  A module-level callable rather than an import so the campaign
#: layer carries zero dependency on (and zero overhead from) the service's
#: chaos-testing harness when no plan is active.
FAULT_HOOK: Optional[Callable[[Scenario], None]] = None


def _run(scenario: Scenario, collectors: Optional[Sequence[str]]) -> SimReport:
    if FAULT_HOOK is not None:
        FAULT_HOOK(scenario)
    run, _ = _FAMILIES[scenario.experiment]
    return run(
        mac=scenario.mac,
        seed=scenario.seed,
        propagation=scenario.propagation,
        collectors=collectors,
        **_campaign_params(scenario),
    )


def scenario_report(scenario: Scenario) -> SimReport:
    """Run one scenario with every collector it names and return its full
    :class:`SimReport`: series, tables (the Q/ρ histories among them) and
    details besides the scalars a record keeps."""
    return _run(scenario, scenario.metrics)


def execute_scenario(scenario: Scenario) -> RunRecord:
    """Run one scenario and return its :class:`RunRecord`.

    A record keeps scalars only, so the run attaches only the collectors
    that provide one (:func:`record_collectors`); its metrics equal those
    of :func:`scenario_report`'s full report.
    """
    report = _run(scenario, record_collectors(scenario.experiment, scenario.metrics))
    return RunRecord(
        scenario=scenario,
        metrics=_report_metrics(report, traced=bool(scenario.params.get("trace"))),
    )


def resolve_jobs(jobs: int) -> int:
    """Normalise a ``--jobs`` value: 0 or negative means one per CPU."""
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def resolve_chunksize(chunksize: Union[int, str], n: int, jobs: int) -> int:
    """Effective pool chunk size for ``n`` tasks over ``jobs`` workers.

    ``"auto"`` (the default) balances pipe round-trips against tail
    latency: ``max(1, n // (jobs * 8))`` gives every worker about eight
    chunks, so short runs amortise the per-task IPC while the last chunks
    still load-balance.  An integer pins the chunk size explicitly.
    """
    if chunksize == "auto":
        return max(1, n // (jobs * 8))
    size = int(chunksize)
    if size < 1:
        raise ValueError(f"chunksize must be positive or 'auto', got {chunksize!r}")
    return size


# ------------------------------------------------------------- worker pool
@dataclass(frozen=True)
class ScenarioTemplate:
    """The per-sweep constants shipped to every worker once.

    A sweep's scenarios share the experiment family, the fixed parameters
    and the collector set; only ``(mac, propagation, seed, axis-values)``
    vary.  Shipping the shared part through the pool initializer shrinks
    every task to that delta.
    """

    experiment: str
    fixed: Tuple[Tuple[str, Any], ...]
    metrics: Optional[Tuple[str, ...]]

    @classmethod
    def of(cls, sweep: Sweep) -> "ScenarioTemplate":
        return cls(
            experiment=sweep.experiment,
            fixed=tuple(sorted(sweep.fixed.items())),
            metrics=tuple(sweep.metrics) if sweep.metrics is not None else None,
        )


#: Per-worker state installed by :func:`_worker_init` (fork-safe module
#: global; each worker process has its own copy).
_WORKER_STATE: Dict[str, Any] = {"template": None}


def _worker_init(blob: bytes) -> None:
    """Pool initializer: install the shared scenario template once per worker
    and configure the worker's construction-artifact cache."""
    template, build_cache, cache_size, fault_plan = pickle.loads(blob)
    _WORKER_STATE["template"] = template
    ARTIFACT_CACHE.configure(enabled=build_cache, maxsize=cache_size)
    if fault_plan is not None or FAULT_HOOK is not None:
        # Forked workers inherit the parent's process-wide hook; a plan-free
        # campaign must actively uninstall it or stale faults keep firing.
        from repro.service import faults

        if fault_plan is not None:
            faults.mark_worker_process()
        faults.install(fault_plan)


def _scenario_from_delta(
    template: ScenarioTemplate, delta: Tuple[str, Optional[str], int, Dict[str, Any]]
) -> Scenario:
    mac, propagation, seed, axis_params = delta
    params = dict(template.fixed)
    params.update(axis_params)
    return Scenario(
        experiment=template.experiment,
        mac=mac,
        seed=seed,
        params=params,
        propagation=propagation,
        metrics=template.metrics,
    )


def _execute_scenarios(scenarios: Sequence[Scenario]) -> List[RunRecord]:
    """Worker entry for a chunk of an explicit scenario list."""
    return [execute_scenario(scenario) for scenario in scenarios]


def _execute_deltas(
    deltas: Sequence[Tuple[str, Optional[str], int, Dict[str, Any]]]
) -> List[RunRecord]:
    """Worker entry for a chunk of sweep deltas: rebuild each scenario from
    the initializer-shipped template plus ``(mac, propagation, seed, axes)``."""
    template: ScenarioTemplate = _WORKER_STATE["template"]
    return [execute_scenario(_scenario_from_delta(template, delta)) for delta in deltas]


def _execute_seed_groups(
    groups: Sequence[Sequence[Tuple[str, Optional[str], int, Dict[str, Any]]]]
) -> List[RunRecord]:
    """Worker entry for a chunk of same-configuration seed groups, each run
    through the seed-group executor: one record per delta, in
    dispatch order, so re-emission in expansion order ignores batching."""
    from repro.campaign.batch_runner import execute_seed_batch

    template: ScenarioTemplate = _WORKER_STATE["template"]
    return [
        record
        for group in groups
        for record in execute_seed_batch(
            [_scenario_from_delta(template, delta) for delta in group]
        )
    ]


def _iter_delta_groups(
    deltas: Iterable[Tuple[str, Optional[str], int, Dict[str, Any]]],
    batch_seeds: int,
) -> Iterator[List[Tuple[str, Optional[str], int, Dict[str, Any]]]]:
    """Group consecutive deltas that differ only in the seed, ``batch_seeds``
    apiece (the affinity sort already clusters same-configuration seeds)."""
    group: List[Tuple[str, Optional[str], int, Dict[str, Any]]] = []
    for delta in deltas:
        if (
            group
            and len(group) < batch_seeds
            and group[0][0] == delta[0]
            and group[0][1] == delta[1]
            and group[0][3] == delta[3]
        ):
            group.append(delta)
            continue
        if group:
            yield group
        group = [delta]
    if group:
        yield group


def _check_indices(indices: Sequence[int], size: int) -> List[int]:
    """Validate a subset of expansion indices: sorted, unique, in range."""
    checked = [int(index) for index in indices]
    if checked != sorted(set(checked)):
        raise ValueError("indices must be sorted and unique")
    if checked and (checked[0] < 0 or checked[-1] >= size):
        raise ValueError(
            f"indices must lie in [0, {size}); got range "
            f"[{checked[0]}, {checked[-1]}]"
        )
    return checked


def _iter_subset(sweep: Sweep, indices: Sequence[int]) -> Iterator[Scenario]:
    """Scenarios of the sweep at the given (sorted) expansion indices.

    Walks the lazy expansion once and stops at the last requested index,
    so a small subset of a huge sweep never expands the tail.
    """
    index_set = frozenset(indices)
    last = indices[-1]
    for position, scenario in enumerate(sweep):
        if position in index_set:
            yield scenario
        if position >= last:
            return


class WorkerDied(RuntimeError):
    """A pool worker exited while the pool had tasks outstanding."""


def _worker_died(workers: Iterable[Any], broken: BaseException) -> WorkerDied:
    """Name the worker whose exit broke the pool, from the exit codes of a
    joined executor's workers.

    A broken executor terminates its surviving workers (``-SIGTERM``), so
    the one that exited otherwise is the one that died.
    """
    exited = [worker for worker in workers if worker.exitcode is not None]
    dead = [worker for worker in exited if worker.exitcode != -signal.SIGTERM] or exited
    if not dead:
        return WorkerDied(f"the worker pool broke while tasks were outstanding: {broken}")
    return WorkerDied(
        f"pool worker {dead[0].pid} exited with code {dead[0].exitcode} "
        f"while tasks were outstanding"
    )


class CampaignRunner:
    """Execute sweeps (or explicit scenario lists) over a worker pool.

    Parameters
    ----------
    jobs:
        Worker-process count; ``1`` (the default) runs serially in-process,
        ``0`` means one worker per CPU.
    chunksize:
        Tasks per pool chunk: ``"auto"`` (default) uses
        ``max(1, n // (jobs * 8))``, an integer pins it.  Larger chunks
        amortise IPC for short runs; ``1`` reproduces the pre-warm-pool
        dispatch behaviour.
    build_cache:
        Reuse construction artifacts (topology, O(n²) link derivation,
        routing tree) across runs sharing a configuration cache key (default on;
        ``--no-build-cache`` on the CLI).  Sweeps are additionally
        dispatched in configuration-affinity order — runs sharing a key
        land consecutively in the same worker chunk — while records are
        re-emitted in the original deterministic expansion order.
        Results are bit-identical with the cache on and off.
    cache_size:
        Per-process LRU capacity of the artifact cache (each worker keeps
        its own).  None (the default) keeps each process's current
        capacity — in particular a serial run never shrinks (and thereby
        evicts from) a cache the caller enlarged via
        ``configure_artifact_cache``.
    batch_seeds:
        Run up to this many consecutive same-configuration seeds as one
        task through :class:`~repro.sim.batch.SeedBatchExecutor`, one after
        another (``--batch-seeds`` on the CLI; default 1 = one task per
        seed).  The affinity sort already clusters a sweep's
        same-configuration seeds adjacently, so groups form naturally;
        records are re-emitted in expansion order and stay bit-identical
        to per-seed runs.

    With ``jobs > 1`` the runner owns a persistent
    :class:`~concurrent.futures.ProcessPoolExecutor` created on first use
    and reused across ``run`` / ``iter_records`` / ``stream`` calls;
    :meth:`close` (or ``with CampaignRunner(...) as r:``) releases it.
    Results are bit-identical for every worker count and chunk size.
    """

    def __init__(
        self,
        jobs: int = 1,
        chunksize: Union[int, str] = "auto",
        build_cache: bool = True,
        cache_size: Optional[int] = None,
        batch_seeds: int = 1,
        fault_plan: Optional[Any] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        resolve_chunksize(chunksize, 0, self.jobs)  # validate eagerly
        self.chunksize = chunksize
        self.build_cache = bool(build_cache)
        if cache_size is not None and cache_size < 1:
            raise ValueError(f"cache_size must be positive, got {cache_size}")
        self.cache_size = cache_size
        if batch_seeds < 1:
            raise ValueError(f"batch_seeds must be positive, got {batch_seeds}")
        self.batch_seeds = batch_seeds
        self.fault_plan = fault_plan
        if fault_plan is not None or FAULT_HOOK is not None:
            # Opt-in chaos harness: the plan is active process-wide (the
            # serial path runs in this process; crash faults still only
            # fire in marked worker processes).  Without a plan, a previous
            # campaign's is cleared so this one and its workers run
            # fault-free.
            from repro.service import faults

            faults.install(fault_plan)
        self._pool: Optional[Any] = None  # the ProcessPoolExecutor
        self._blob: Optional[bytes] = None
        self._workers: Dict[int, Any] = {}
        self._busy = False

    # ---------------------------------------------------------------- pool
    def close(self) -> None:
        """Release the worker processes; safe to call repeatedly, also from
        a thread other than the one consuming records.

        Idle workers exit on their own.  With a dispatch unfinished, or a
        worker lost (it may have died holding the call queue's read lock,
        which the others need to read their exit request), they are
        terminated and their chunks abandoned; the executor sees them die
        and stops its queues without taking a lock that a dead worker may
        hold, and with the call queue's reader closed no chunk still
        waiting in its pipe blocks the teardown.
        """
        executor, self._pool = self._pool, None
        if executor is None:
            return
        if self._busy or self._lost_worker():
            for worker in list(self._workers.values()):
                worker.terminate()
            if sys.version_info < (3, 11, 5):
                # Later versions close it on a break (CPython gh-94777).
                # Until then, chunks beyond a pipe buffer that no worker
                # will read block the queue's writer, and shutdown with it.
                executor._call_queue._reader.close()
        executor.shutdown(cancel_futures=True)
        self._busy = False

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _lost_worker(self) -> bool:
        """Whether a worker of the current executor has exited."""
        from multiprocessing.connection import wait

        return bool(wait([worker.sentinel for worker in self._workers.values()], timeout=0))

    def _executor(self, template: Optional[ScenarioTemplate]) -> Any:
        """The warm executor for this template and cache configuration,
        busy until its dispatch finishes.

        The executor is recreated when its initializer payload (the pickled
        template, cache configuration and fault plan) changes, and when a
        worker died while it sat idle: no run was lost, so the dispatch
        starts on fresh workers instead of failing on a broken executor.
        """
        from concurrent.futures import ProcessPoolExecutor

        blob = pickle.dumps(
            (template, self.build_cache, self.cache_size, self.fault_plan),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        if self._pool is None or blob != self._blob or self._lost_worker():
            self.close()
            self._pool = ProcessPoolExecutor(
                self.jobs,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_worker_init,
                initargs=(blob,),
            )
            self._blob = blob
            # The executor's process table, filled by the first submit: the
            # only way to terminate a busy executor's workers before Python
            # 3.14 (``terminate_workers()``), to see an idle one die and to
            # name a dead one.
            self._workers = self._pool._processes
        self._busy = True
        return self._pool

    def _dispatch(
        self, executor: Any, task: Callable, items: Iterable, chunksize: int
    ) -> Iterator[RunRecord]:
        """Run ``task`` over ``items`` in chunks; yield records in order.

        At most ``2 * jobs`` chunks are in flight, so every worker has its
        next chunk queued while a lazily expanded sweep is submitted only
        as fast as it is consumed (``Executor.map`` would submit it all).
        """
        items = iter(items)
        window: "deque[Any]" = deque()
        for chunk in iter(lambda: tuple(itertools.islice(items, chunksize)), ()):
            if len(window) == 2 * self.jobs:
                yield from window.popleft().result()
            window.append(executor.submit(task, chunk))
        while window:
            yield from window.popleft().result()

    def pool_config(self, size: int) -> Dict[str, Any]:
        """The effective pool configuration for a campaign of ``size`` runs
        (surfaced in sweep exports for post-hoc debugging)."""
        parallel = self.jobs > 1 and size > 1
        return {
            "jobs": self.jobs,
            "chunksize": resolve_chunksize(self.chunksize, size, self.jobs) if parallel else 1,
            "pool": "persistent" if parallel else "serial",
            "build_cache": self.build_cache,
            "batch_seeds": self.batch_seeds,
        }

    def _affinity_order(self, sweep: Sweep, deltas: List[Tuple]) -> Optional[List[int]]:
        """Dispatch permutation grouping runs that share construction artifacts.

        A stable sort by :func:`construction_affinity_key`, so runs sharing
        a key become consecutive (and land in the same worker chunk) while
        each group keeps expansion order.  None when the expansion order is
        already affine — the common case (seeds innermost) costs nothing —
        or when the permutation would displace a run by more than
        :data:`AFFINITY_MAX_DISPLACEMENT` positions, which bounds the
        re-emission buffer of :meth:`_reorder`.
        """
        fixed = dict(sweep.fixed)
        # Seed-dependence is a function of (propagation, construction
        # values) — a handful of distinct pairs per sweep — so memoise it
        # instead of re-resolving registries for every run.
        seed_dependent: Dict[Tuple, bool] = {}
        keys = []
        for mac, propagation, seed, axis_params in deltas:
            params = {**fixed, **axis_params}
            values = construction_values(sweep.experiment, params)
            memo_key = (propagation, values)
            dependent = seed_dependent.get(memo_key)
            if dependent is None:
                dependent = construction_seed_dependent(
                    sweep.experiment, propagation, params
                )
                seed_dependent[memo_key] = dependent
            keys.append(
                construction_affinity_key(
                    sweep.experiment,
                    propagation,
                    seed,
                    params,
                    values=values,
                    seed_dependent=dependent,
                )
            )
        order = sorted(range(len(deltas)), key=keys.__getitem__)
        if order == list(range(len(deltas))):
            return None
        if max(
            abs(original - position) for position, original in enumerate(order)
        ) > AFFINITY_MAX_DISPLACEMENT:
            return None
        return order

    @staticmethod
    def _reorder(results: Iterable[RunRecord], order: List[int]) -> Iterator[RunRecord]:
        """Re-emit affinity-dispatched results in original expansion order.

        Buffers records that finish ahead of their expansion position; the
        buffer is bounded by the dispatch permutation's maximum
        displacement, which :meth:`_affinity_order` caps at
        :data:`AFFINITY_MAX_DISPLACEMENT`.
        """
        pending: Dict[int, RunRecord] = {}
        next_index = 0
        for position, record in enumerate(results):
            pending[order[position]] = record
            while next_index in pending:
                yield pending.pop(next_index)
                next_index += 1

    def iter_records(
        self,
        sweep: Union[Sweep, Iterable[Scenario]],
        indices: Optional[Sequence[int]] = None,
    ) -> Iterator[RunRecord]:
        """Yield records in deterministic expansion order as they finish.

        Sweeps are expanded lazily: with ``jobs > 1`` their scenarios cross
        the pipe as ``(mac, propagation, seed, axis-values)`` deltas against
        the initializer-shipped template, so a million-run sweep is never
        materialised in the parent.  An empty sweep (or scenario list)
        yields nothing.

        ``indices`` optionally restricts execution to a sorted subset of
        the sweep's expansion indices — the seam the campaign service uses
        for checkpoint resume (run only the pending set) and shard dispatch
        (run one shard's slice).  The subset flows through the same
        template/affinity/seed-batch machinery as a full sweep, and records
        are yielded in the subset's expansion order.  Results per scenario
        are bit-identical to a full-sweep run.

        With the build cache enabled, sweeps up to
        :data:`AFFINITY_REORDER_LIMIT` runs are dispatched in
        configuration-affinity order (runs sharing construction artifacts
        consecutively, so each worker's artifact LRU sees same-key
        streaks); records are still yielded in expansion order.  Larger
        sweeps keep lazy expansion-order dispatch.

        Exhaust the iterator (or let :meth:`run` / :meth:`stream` do so):
        abandoning it mid-sweep terminates the workers — they would
        otherwise keep executing the chunks already submitted — and the
        next campaign re-warms a fresh executor.  A worker that dies
        (the executor watches their exit) raises :class:`WorkerDied`,
        naming its pid and exit code.
        """
        if isinstance(sweep, Sweep):
            scenarios: Optional[List[Scenario]] = None
            if indices is not None:
                indices = _check_indices(indices, sweep.size)
                size = len(indices)
            else:
                size = sweep.size
        else:
            scenarios = list(sweep)
            if indices is not None:
                indices = _check_indices(indices, len(scenarios))
                scenarios = [scenarios[index] for index in indices]
            size = len(scenarios)
        if size == 0:
            return

        def expand() -> Iterator[Scenario]:
            if scenarios is not None:
                return iter(scenarios)
            if indices is None:
                return iter(sweep)
            return _iter_subset(sweep, indices)

        if self.jobs == 1 or size == 1:
            execute: Callable[[Sequence[Scenario]], List[RunRecord]] = _execute_scenarios
            groups: Iterable[Sequence[Scenario]] = ([scenario] for scenario in expand())
            if self.batch_seeds > 1:
                from repro.campaign.batch_runner import execute_seed_batch, iter_seed_groups

                execute = execute_seed_batch
                groups = iter_seed_groups(expand(), self.batch_seeds)
            for group in groups:
                # Scope the runner's cache configuration to the execution
                # itself (not the yield) so caller code running between
                # records sees the process-wide defaults.
                with ARTIFACT_CACHE.override(
                    enabled=self.build_cache, maxsize=self.cache_size
                ):
                    records = execute(group)
                yield from records
            return
        from concurrent.futures.process import BrokenProcessPool

        chunk = resolve_chunksize(self.chunksize, size, self.jobs)
        executor = self._executor(ScenarioTemplate.of(sweep) if scenarios is None else None)
        workers = self._workers
        if scenarios is None:
            axes = sweep.axes

            def delta_of(s: Scenario) -> Tuple:
                return (s.mac, s.propagation, s.seed, {name: s.params[name] for name in axes})

            from repro.campaign.batch_runner import batchable_experiment

            batching = self.batch_seeds > 1 and batchable_experiment(sweep.experiment)

            def dispatch(deltas: Iterable[Tuple]) -> Iterator[RunRecord]:
                """Dispatch the deltas, grouped into seed batches when enabled."""
                if not batching:
                    return self._dispatch(executor, _execute_deltas, deltas, chunk)
                groups = _iter_delta_groups(deltas, self.batch_seeds)
                group_chunk = resolve_chunksize(
                    self.chunksize, max(1, size // self.batch_seeds), self.jobs
                )
                return self._dispatch(executor, _execute_seed_groups, groups, group_chunk)

            order: Optional[List[int]] = None
            if self.build_cache and size <= AFFINITY_REORDER_LIMIT:
                delta_list = [delta_of(s) for s in expand()]
                order = self._affinity_order(sweep, delta_list)
                if order is not None:
                    dispatched = [delta_list[index] for index in order]
                else:
                    dispatched = delta_list
                results: Iterable[RunRecord] = dispatch(dispatched)
                if order is not None:
                    results = self._reorder(results, order)
            else:
                results = dispatch(delta_of(s) for s in expand())
        else:
            results = self._dispatch(executor, _execute_scenarios, scenarios, chunk)
        completed = False
        try:
            yield from results
            completed = True
            self._busy = False
        except BrokenProcessPool as broken:
            if self._pool is executor:
                self.close()  # joins the executor: every worker has exited
            raise _worker_died(workers.values(), broken) from None
        finally:
            if not completed and self._pool is executor:
                # Closed early (caller stopped consuming, or a worker/sink
                # raised): terminate the workers so the outstanding chunks
                # die with them instead of burning CPU behind the caller's
                # back (only this executor: another thread may already run
                # a fresh one).
                self.close()

    def run(self, sweep: Union[Sweep, Iterable[Scenario]]) -> CampaignResult:
        """Run every scenario of the sweep; records keep expansion order.

        Materialises the full record list — use :meth:`stream` for sweeps
        too large to hold in memory.
        """
        return CampaignResult(records=list(self.iter_records(sweep)))

    def stream(
        self,
        sweep: Union[Sweep, Iterable[Scenario]],
        sinks: Sequence[RecordSink] = (),
    ) -> None:
        """Run the sweep, pushing each record through the sinks as it finishes.

        Memory stays constant: records are dropped after the sinks have
        seen them (pair with a :class:`~repro.campaign.frame.JsonlRecordSink`
        and/or :class:`~repro.campaign.frame.TableAggregator`).  Sinks are
        closed on return, also on error — including ``KeyboardInterrupt``,
        so an interrupted checkpointed sweep always leaves readable
        (flushed and closed) output files and no orphan worker processes.
        """
        try:
            for record in self.iter_records(sweep):
                for sink in sinks:
                    sink.write(record)
        except BaseException:
            # BaseException on purpose: Ctrl-C raises KeyboardInterrupt in
            # the consumer loop (e.g. inside a sink write), which abandons
            # the iter_records generator without running its cleanup —
            # terminate the pool explicitly so no workers outlive the
            # interrupt.  close() is idempotent with the generator's own
            # finally block.
            self.close()
            raise
        finally:
            for sink in sinks:
                sink.close()
