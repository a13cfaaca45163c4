"""Campaign execution over a persistent multiprocessing worker pool.

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
metrics are the resulting report's scalars plus ``sim_time``.  The same
table answers which metrics a family can emit
(:func:`experiment_metric_names`).

:meth:`CampaignRunner.stream` consumes records as they finish (in order)
and hands them to :class:`~repro.campaign.frame.RecordSink` objects —
JSONL/CSV export and grouped aggregation then run in constant memory, so a
million-run sweep never materialises its record list.

Warm workers
------------
Earlier releases forked a fresh ``multiprocessing.Pool`` per ``run`` /
``iter_records`` / ``stream`` call and shipped every run as a fully
pickled :class:`Scenario` with ``chunksize=1`` — for short runs the sweep
was dominated by orchestration, not simulation.  The runner now owns one
:class:`WorkerPool` for its lifetime: workers are created once (and reused
across calls), the sweep's shared *scenario template* (experiment, fixed
parameters, collector set) is shipped once through the pool initializer,
and each run crosses the pipe as just its ``(mac, propagation, seed,
axis-values)`` delta, in adaptively sized chunks
(``max(1, n // (jobs * 8))`` by default, overridable via ``chunksize``).
Call :meth:`CampaignRunner.close` (or use the runner as a context
manager) to release the workers early; they are also reclaimed when the
runner is garbage collected.

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
import itertools
import multiprocessing
import os
import pickle
import weakref
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


def experiment_metric_names(
    experiment: str,
    collectors: Optional[Sequence[str]] = None,
) -> Tuple[str, ...]:
    """Scalar names (patterns included, e.g. ``pdr_node_*``) the given
    experiment emits with the given collector set (None: its defaults).

    Derived from the collector registry's ``provides`` declarations, so a
    newly registered collector is validated with zero campaign changes.
    """
    try:
        _, module = _FAMILIES[experiment]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment!r}; expected one of {EXPERIMENT_KINDS}"
        ) from None
    chosen = module.DEFAULT_COLLECTORS if collectors is None else collectors
    names: List[str] = []
    for collector in build_collectors(chosen, module.COLLECTOR_OVERRIDES):
        for name in collector.provides():
            if name not in names:
                names.append(name)
    names.extend(_IMPLICIT_METRICS)
    return tuple(names)


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


def scenario_report(scenario: Scenario) -> SimReport:
    """Run one scenario and return its full :class:`SimReport` (series,
    tables and details besides the scalars a record keeps)."""
    if FAULT_HOOK is not None:
        FAULT_HOOK(scenario)
    run, _ = _FAMILIES[scenario.experiment]
    return run(
        mac=scenario.mac,
        seed=scenario.seed,
        propagation=scenario.propagation,
        collectors=scenario.metrics,
        **_campaign_params(scenario),
    )


def execute_scenario(scenario: Scenario) -> RunRecord:
    """Run one scenario and return its :class:`RunRecord`."""
    report = scenario_report(scenario)
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
    if fault_plan is not None:
        from repro.service import faults

        faults.mark_worker_process()
        faults.install(fault_plan)
    elif FAULT_HOOK is not None:
        # Forked workers inherit the parent's process-wide hook; a plan-free
        # campaign must actively uninstall it or stale faults keep firing.
        from repro.service import faults

        faults.install(None)


def _execute_scenario_task(scenario: Scenario) -> RunRecord:
    """Worker entry for explicit scenario lists (no shared template)."""
    return execute_scenario(scenario)


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


def _execute_delta_task(delta: Tuple[str, Optional[str], int, Dict[str, Any]]) -> RunRecord:
    """Worker entry for sweep deltas: rebuild the scenario from the
    initializer-shipped template plus ``(mac, propagation, seed, axes)``."""
    return execute_scenario(_scenario_from_delta(_WORKER_STATE["template"], delta))


def _execute_batch_task(
    deltas: Sequence[Tuple[str, Optional[str], int, Dict[str, Any]]]
) -> List[RunRecord]:
    """Worker entry for a same-configuration seed group: run the group's
    scenarios through the lockstep seed-batch executor."""
    from repro.campaign.batch_runner import execute_seed_batch

    template: ScenarioTemplate = _WORKER_STATE["template"]
    scenarios = [_scenario_from_delta(template, delta) for delta in deltas]
    return execute_seed_batch(scenarios)


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


def _run_chunk(task: Tuple[Callable, Tuple]) -> List[Any]:
    """Worker entry of :meth:`WorkerPool.imap`: one ``(func, items)`` chunk."""
    func, chunk = task
    return [func(item) for item in chunk]


def _shutdown_pool(pool: "multiprocessing.pool.Pool") -> None:
    """Finalizer target: release a raw pool's worker processes."""
    pool.terminate()
    pool.join()


class WorkerDied(RuntimeError):
    """A pool worker exited while the pool had tasks outstanding."""


class WorkerPool:
    """A persistent multiprocessing pool with warm, template-initialised workers.

    The raw ``multiprocessing.Pool`` is (re)created only when the
    initializer payload — the pickled template and cache configuration —
    changes; successive campaigns over the same sweep shape reuse the warm
    workers.  The pool is released by :meth:`close` or, failing that, by a
    garbage-collection finalizer.

    Work handed out by :meth:`ensure` keeps the pool *busy* until the
    dispatcher reports it finished through :meth:`settle`.  :meth:`close`
    shuts an idle pool down gracefully (the workers exit on their own) and
    terminates only a busy one, whose outstanding tasks are abandoned.

    Workers are never recycled, so one that exits while tasks are
    outstanding has died with its task, which ``multiprocessing`` never
    returns.  :meth:`imap` checks the workers whenever no result arrives
    for :data:`POLL_INTERVAL` and raises :class:`WorkerDied`.
    """

    #: Seconds without a result before the workers' exit codes are checked.
    POLL_INTERVAL = 0.2

    def __init__(self, processes: int) -> None:
        self.processes = processes
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._workers: List[Any] = []
        self._blob: Optional[bytes] = None
        self._finalizer = None
        self._busy = False

    def ensure(
        self,
        template: Optional[ScenarioTemplate],
        build_cache: bool = True,
        cache_size: Optional[int] = None,
        fault_plan: Optional[Any] = None,
    ) -> None:
        """Warm workers carrying the given template and cache config; the
        pool counts as busy until :meth:`settle`."""
        blob = pickle.dumps(
            (template, build_cache, cache_size, fault_plan),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        if self._pool is None or blob != self._blob:
            self.close()
            self._pool = multiprocessing.Pool(
                processes=self.processes, initializer=_worker_init, initargs=(blob,)
            )
            # The processes the pool started (it keeps no public handle).
            self._workers = list(self._pool._pool)
            self._blob = blob
            self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool)
        self._busy = True

    def imap(self, func: Callable, iterable: Iterable, chunksize: int) -> Iterator:
        """``Pool.imap`` that raises :class:`WorkerDied` when a worker exits.

        Chunks are formed here, as ``Pool.imap`` would, because only its
        unchunked iterator can be waited on with a timeout.
        """
        workers = self._workers
        items = iter(iterable)
        chunks = iter(lambda: tuple(itertools.islice(items, chunksize)), ())
        results = self._pool.imap(_run_chunk, ((func, chunk) for chunk in chunks))
        while True:
            try:
                chunk = results.next(self.POLL_INTERVAL)
            except StopIteration:
                return
            except multiprocessing.TimeoutError:
                for worker in workers:
                    if worker.exitcode is not None:
                        raise WorkerDied(
                            f"pool worker {worker.pid} exited with code "
                            f"{worker.exitcode} while tasks were outstanding"
                        ) from None
                continue
            yield from chunk

    def settle(self) -> None:
        """Report every task dispatched since :meth:`ensure` as finished."""
        self._busy = False

    def close(self) -> None:
        """Release the worker processes; safe to call repeatedly.

        ``Pool.terminate`` can block on the task queue's write lock while
        workers compete for the CPU, so it is kept for abandoned work.
        """
        if self._pool is not None:
            # Unset first: an imap in another thread that sees the workers
            # terminated then finds this pool already closed.
            pool, self._pool = self._pool, None
            self._finalizer.detach()
            if self._busy:
                pool.terminate()
            else:
                pool.close()
            pool.join()
            self._workers = []
            self._blob = None
            self._busy = False


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
        lockstep batch through :class:`~repro.sim.batch.SeedBatchExecutor`
        (``--batch-seeds`` on the CLI; default 1 = per-seed execution).
        The affinity sort already clusters a sweep's same-configuration
        seeds adjacently, so groups form naturally; records are re-emitted
        in expansion order and stay bit-identical to per-seed runs —
        configurations the batch kernel does not support fall back to
        serial execution inside the executor.

    With ``jobs > 1`` the runner owns a persistent :class:`WorkerPool`
    created on first use and reused across ``run`` / ``iter_records`` /
    ``stream`` calls; :meth:`close` (or ``with CampaignRunner(...) as r:``)
    releases it.  Results are bit-identical for every worker count and
    chunk size.
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
        if fault_plan is not None:
            # Opt-in chaos harness: the plan is active process-wide (the
            # serial path runs in this process; crash faults still only
            # fire in marked worker processes).
            from repro.service import faults

            faults.install(fault_plan)
        elif FAULT_HOOK is not None:
            # A previous campaign's plan is still installed process-wide;
            # clear it so this (and any forked workers) run fault-free.
            from repro.service import faults

            faults.install(None)
        self._pool: Optional[WorkerPool] = None

    # ---------------------------------------------------------------- pool
    def close(self) -> None:
        """Release the persistent worker pool (if one was created)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _worker_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(self.jobs)
        return self._pool

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

    def _scenarios(self, sweep: Union[Sweep, Iterable[Scenario]]) -> List[Scenario]:
        return sweep.scenarios() if isinstance(sweep, Sweep) else list(sweep)

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
        abandoning it mid-sweep terminates the worker pool — ``imap``'s
        feeder thread would otherwise keep executing the remaining
        scenarios in the background — and the next campaign re-warms it.
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
            if self.batch_seeds > 1:
                from repro.campaign.batch_runner import execute_seed_batch, iter_seed_groups

                for group in iter_seed_groups(expand(), self.batch_seeds):
                    with ARTIFACT_CACHE.override(
                        enabled=self.build_cache, maxsize=self.cache_size
                    ):
                        records = execute_seed_batch(group)
                    yield from records
                return
            for scenario in expand():
                # Scope the runner's cache configuration to the execution
                # itself (not the yield) so caller code running between
                # records sees the process-wide defaults.
                with ARTIFACT_CACHE.override(
                    enabled=self.build_cache, maxsize=self.cache_size
                ):
                    record = execute_scenario(scenario)
                yield record
            return
        chunk = resolve_chunksize(self.chunksize, size, self.jobs)
        workers = self._worker_pool()
        workers.ensure(
            ScenarioTemplate.of(sweep) if scenarios is None else None,
            self.build_cache, self.cache_size, self.fault_plan,
        )
        if scenarios is None:
            axes = sweep.axes

            def delta_of(s: Scenario) -> Tuple:
                return (s.mac, s.propagation, s.seed, {name: s.params[name] for name in axes})

            from repro.campaign.batch_runner import batchable_experiment

            batching = self.batch_seeds > 1 and batchable_experiment(sweep.experiment)

            def dispatch(deltas: Iterable[Tuple]) -> Iterable[RunRecord]:
                """imap the deltas, grouped into seed batches when enabled.

                Flattening the groups' record lists restores one record per
                delta in dispatch order, so the expansion-order re-emission
                below is oblivious to batching.
                """
                if not batching:
                    return workers.imap(_execute_delta_task, deltas, chunk)
                groups = _iter_delta_groups(deltas, self.batch_seeds)
                group_chunk = resolve_chunksize(
                    self.chunksize, max(1, size // self.batch_seeds), self.jobs
                )
                return (
                    record
                    for group in workers.imap(_execute_batch_task, groups, group_chunk)
                    for record in group
                )

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
            results = workers.imap(_execute_scenario_task, scenarios, chunk)
        completed = False
        try:
            yield from results
            completed = True
            workers.settle()
        finally:
            if not completed:
                # Closed early (caller stopped consuming, or a worker/sink
                # raised): drop the pool so the outstanding tasks die with
                # it instead of burning CPU behind the caller's back (only
                # this pool: another thread may already run a fresh one).
                workers.close()
                if self._pool is workers:
                    self._pool = None

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
