"""Deterministic fault injection for the campaign supervision layer.

A :class:`FaultPlan` is a declarative list of faults to inject at exact,
reproducible points of a campaign — the test harness behind the chaos
matrix: any injected fault sequence must still yield results bit-identical
to an undisturbed run (or an explicit ``partial`` outcome with a populated
quarantine file), never a hang and never an unhandled traceback.

Fault kinds
-----------
Worker-side faults match on *scenario content* (the master seed, plus any
scenario field or parameter), because run identity is a pure function of
the scenario — the same plan fires at the same run regardless of worker
count, sharding or dispatch order:

* ``crash`` — the worker process ``os._exit``'s mid-run (a segfault
  stand-in); fires only inside marked worker processes (pool workers,
  shard workers, probe children), never in the supervising process.
* ``hang`` — the run sleeps ``hang_s`` seconds before proceeding, so a
  configured per-run timeout sees a wedged worker.
* ``poison`` — the run raises :class:`InjectedPoisonError` on *every*
  attempt: the quarantine path's test vector.

Parent-side faults fire in the supervising process:

* ``torn-tail`` — after ``after`` journal appends, a torn (newline-less)
  fragment is written to the journal and the attempt aborts, exactly as a
  crash between ``write`` and ``fsync`` would leave the file.
* ``drop-http`` — the campaign server closes one connection before
  writing its response.

Network faults target the remote dispatch path (see
:mod:`repro.service.remote`); ``drop-stream``/``partition`` fire in the
dispatching process, ``slow-link``/``agent-crash`` in the agent:

* ``drop-stream@after=N`` — the dispatcher tears down a shard's journal
  stream after ``N`` merged lines, mid-chunk, as a dropped TCP link
  would; the transport retry must resume at the byte offset.
* ``partition:<host>`` — connections towards ``host`` (``HOST:PORT``;
  omit for any host) fail ``after`` times (default 1) as if the network
  were partitioned, exercising host quarantine and slice reassignment.
* ``slow-link:<secs>`` — the agent stalls chunk delivery for ``secs``
  while the shard worker keeps running (heartbeats still flow), probing
  that slow links do not false-trip ``run_timeout`` watchdogs.
* ``agent-crash@shard=K`` — the agent process ``os._exit``'s before
  starting shard ``K`` (a dead box stand-in).

One-shot faults (every kind except ``poison``) fire exactly once per
campaign *across processes*: firing requires atomically claiming a marker
file (``O_CREAT | O_EXCL``) under the plan's scratch directory, so two
workers racing on the same fault cannot both inject it, and a retried run
re-executes clean.

Plans are plain data — picklable into pool initializers, JSON-able into
shard job documents — and are parsed from a compact CLI spec::

    crash@seed=3;hang:30@seed=5;poison@seed=7,delta=50.0;torn@after=12;drop-http
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "InjectedPoisonError",
    "active_plan",
    "in_worker_process",
    "install",
    "mark_worker_process",
]

#: Exit status of an injected worker crash (distinctive in shard stderr).
CRASH_EXIT_STATUS = 86

#: Fault kinds consulted by worker processes (scenario-matched).
WORKER_KINDS = ("crash", "hang", "poison")

#: Fault kinds consulted by the supervising / serving process.
PARENT_KINDS = ("torn-tail", "drop-http")

#: Fault kinds consulted by the remote dispatch transport (dispatcher or
#: agent side; never inside a simulation run).
NETWORK_KINDS = ("drop-stream", "partition", "slow-link", "agent-crash")


class InjectedFault(RuntimeError):
    """An injected (deliberate) fault — raised only under a fault plan."""


class InjectedPoisonError(InjectedFault):
    """A poison run's failure: raised on every attempt of the matched run."""


@dataclass(frozen=True)
class Fault:
    """One fault: what to inject, and exactly where.

    ``match`` keys name scenario fields (``seed``, ``mac``,
    ``propagation``, ``experiment``) or parameters (anything else); a
    fault matches when every given key equals the scenario's value.
    ``torn-tail`` and ``drop-http`` ignore ``match``.
    """

    kind: str
    match: Tuple[Tuple[str, Any], ...] = ()
    hang_s: float = 30.0
    after: int = 1  # torn-tail: journal appends before the tear

    def __post_init__(self) -> None:
        if self.kind not in WORKER_KINDS + PARENT_KINDS + NETWORK_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{WORKER_KINDS + PARENT_KINDS + NETWORK_KINDS}"
            )
        if self.kind in WORKER_KINDS and not self.match:
            raise ValueError(f"{self.kind} fault needs a match (e.g. {self.kind}@seed=3)")
        if self.kind == "agent-crash" and not self.match:
            raise ValueError("agent-crash fault needs a match (e.g. agent-crash@shard=0)")

    @property
    def once(self) -> bool:
        """Whether the fault fires at most once per campaign (all but poison)."""
        return self.kind != "poison"

    def matches(self, scenario: Any) -> bool:
        for key, value in self.match:
            if key in ("seed", "mac", "propagation", "experiment"):
                if getattr(scenario, key, None) != value:
                    return False
            elif scenario.params.get(key) != value:
                return False
        return True

    def label(self) -> str:
        match = ",".join(f"{k}={v}" for k, v in self.match)
        return f"{self.kind}[{match}]" if match else self.kind

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "match": [list(pair) for pair in self.match],
            "hang_s": self.hang_s,
            "after": self.after,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Fault":
        return cls(
            kind=str(data["kind"]),
            match=tuple((str(k), v) for k, v in data.get("match", ())),
            hang_s=float(data.get("hang_s", 30.0)),
            after=int(data.get("after", 1)),
        )


@dataclass
class FaultPlan:
    """A reproducible set of faults plus the scratch dir for one-shot markers.

    ``scratch`` is bound by the supervisor (beside the campaign journal)
    before the plan is shipped to workers, so the exactly-once markers are
    shared by every process of the campaign.  An unbound plan falls back
    to in-process one-shot tracking (fine for single-process use).
    """

    faults: List[Fault] = field(default_factory=list)
    scratch: Optional[str] = None

    def __post_init__(self) -> None:
        self._fired: set = set()  # in-process fallback for unbound plans

    # -------------------------------------------------------------- binding
    def bind(self, scratch: str) -> "FaultPlan":
        """Attach (and create) the marker directory; returns self."""
        os.makedirs(scratch, exist_ok=True)
        self.scratch = scratch
        return self

    def _claim(self, slot: Any) -> bool:
        """Atomically claim one-shot fault ``slot``; True exactly once."""
        if self.scratch is None:
            if slot in self._fired:
                return False
            self._fired.add(slot)
            return True
        marker = os.path.join(self.scratch, f"fault_{slot}.fired")
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except FileExistsError:
            return False
        except OSError:
            # Scratch vanished (campaign cleanup racing a straggler):
            # swallow the fault rather than crash the worker for real.
            return False

    # ------------------------------------------------------- worker faults
    def check_scenario(self, scenario: Any) -> None:
        """Worker-side hook: inject any matching crash/hang/poison fault.

        Called by :func:`repro.campaign.runner.execute_scenario` when a
        plan is installed.  ``crash`` fires only in marked worker
        processes — in the supervising process it is skipped (killing the
        supervisor is outside the fault model; a parent crash is covered
        by the kill -9 resume tests).
        """
        for slot, fault in enumerate(self.faults):
            if fault.kind not in WORKER_KINDS or not fault.matches(scenario):
                continue
            if fault.kind == "poison":
                raise InjectedPoisonError(
                    f"injected poison fault at {fault.label()}"
                )
            if fault.kind == "crash" and not in_worker_process():
                continue
            if not self._claim(slot):
                continue
            if fault.kind == "crash":
                os.write(2, f"injected crash fault at {fault.label()}\n".encode())
                os._exit(CRASH_EXIT_STATUS)
            time.sleep(fault.hang_s)  # hang

    # ------------------------------------------------------- parent faults
    def take_torn_tail(self, appended: int) -> bool:
        """True when a torn-tail fault should fire after ``appended`` appends."""
        for slot, fault in enumerate(self.faults):
            if fault.kind == "torn-tail" and appended >= fault.after:
                if self._claim(slot):
                    return True
        return False

    def take_drop_http(self) -> bool:
        """True when the server should drop the current connection."""
        for slot, fault in enumerate(self.faults):
            if fault.kind == "drop-http" and self._claim(slot):
                return True
        return False

    # ------------------------------------------------------ network faults
    def take_drop_stream(self, streamed: int) -> bool:
        """True when a remote journal stream should drop after ``streamed`` lines."""
        for slot, fault in enumerate(self.faults):
            if fault.kind == "drop-stream" and streamed >= fault.after:
                if self._claim(slot):
                    return True
        return False

    def take_partition(self, host: str) -> bool:
        """True when a connection towards ``host`` should fail as partitioned.

        A partition fires ``after`` times (default 1) so it can outlast a
        transport retry budget and force host quarantine; an empty match
        partitions whichever host connects first.
        """
        for slot, fault in enumerate(self.faults):
            if fault.kind != "partition":
                continue
            target = dict(fault.match).get("host")
            if target is not None and str(target) != host:
                continue
            for shot in range(max(1, fault.after)):
                if self._claim(f"{slot}_p{shot}"):
                    return True
        return False

    def take_slow_link(self) -> Optional[float]:
        """Stall seconds for the agent's next chunk delivery, or None."""
        for slot, fault in enumerate(self.faults):
            if fault.kind == "slow-link" and self._claim(slot):
                return fault.hang_s
        return None

    def take_agent_crash(self, shard: Any) -> bool:
        """True when the agent should die before starting ``shard``."""
        for slot, fault in enumerate(self.faults):
            if fault.kind != "agent-crash":
                continue
            if dict(fault.match).get("shard") != shard:
                continue
            if self._claim(slot):
                return True
        return False

    # ------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        return {
            "faults": [fault.to_dict() for fault in self.faults],
            "scratch": self.scratch,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            faults=[Fault.from_dict(item) for item in data.get("faults", ())],
            scratch=data.get("scratch"),
        )

    def __getstate__(self) -> Dict[str, Any]:
        return self.to_dict()

    def __setstate__(self, state: Dict[str, Any]) -> None:
        plan = FaultPlan.from_dict(state)
        self.faults = plan.faults
        self.scratch = plan.scratch
        self._fired = set()

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the CLI fault grammar (see the module docstring).

        Entries are semicolon-separated: ``kind[:arg][@key=value,...]``.
        The ``:arg`` is ``hang_s`` for ``hang``/``slow-link``, ``after``
        for ``torn``/``torn-tail``/``drop-stream``, and the target host
        for ``partition`` (``partition:HOST:PORT``).
        """
        faults: List[Fault] = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            head, _, match_text = entry.partition("@")
            kind, _, arg = head.partition(":")
            kind = {"torn": "torn-tail"}.get(kind.strip(), kind.strip())
            match: List[Tuple[str, Any]] = []
            for pair in match_text.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, sep, value = pair.partition("=")
                if not sep or not key or not value:
                    raise ValueError(f"fault match expects KEY=VALUE, got {pair!r}")
                match.append((key, _parse_value(value)))
            kwargs: Dict[str, Any] = {"kind": kind, "match": tuple(match)}
            if arg:
                if kind in ("hang", "slow-link"):
                    kwargs["hang_s"] = float(arg)
                elif kind in ("torn-tail", "drop-stream"):
                    kwargs["after"] = int(arg)
                elif kind == "partition":
                    kwargs["match"] = tuple(match) + (("host", arg),)
                else:
                    raise ValueError(f"fault kind {kind!r} takes no :argument")
            if kind in ("torn-tail", "drop-stream", "partition") and "after" in dict(
                match
            ):
                promoted = dict(match)
                kwargs["after"] = int(promoted.pop("after"))
                kwargs["match"] = tuple(
                    pair for pair in kwargs["match"] if pair[0] != "after"
                )
            faults.append(Fault(**kwargs))
        if not faults:
            raise ValueError(f"fault spec {spec!r} declares no faults")
        return cls(faults=faults)


def _parse_value(text: str) -> Any:
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


# ------------------------------------------------------------ installation
#: The process-wide active plan; consulted through the campaign runner's
#: fault hook (zero overhead when no plan is installed).
_ACTIVE: Optional[FaultPlan] = None

#: True in processes that may be killed by ``crash`` faults.
_IS_WORKER = False


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (None uninstalls) and hook the runner."""
    global _ACTIVE
    _ACTIVE = plan
    from repro.campaign import runner

    runner.FAULT_HOOK = plan.check_scenario if plan is not None else None


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def mark_worker_process() -> None:
    """Declare this process expendable: ``crash`` faults may kill it."""
    global _IS_WORKER
    _IS_WORKER = True


def in_worker_process() -> bool:
    return _IS_WORKER
