"""Discrete-event simulation kernel.

This package provides the deterministic, seeded discrete-event engine on
which the whole reproduction runs.  It replaces OMNeT++ from the paper's
evaluation: the engine offers an event heap with stable ordering, a
simulation clock, named random-number streams and a lightweight trace
recorder.  Events cannot be cancelled; stoppable timers carry an epoch
and go stale instead (see :mod:`repro.sim.engine`).

Typical usage::

    from repro.sim import Simulator

    sim = Simulator(seed=1)
    sim.schedule(1.0, lambda: print("hello at t=1"))
    sim.run_until(10.0)
"""

from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecord, TraceRecorder

__all__ = [
    "PeriodicProcess",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "TraceRecord",
    "TraceRecorder",
]
