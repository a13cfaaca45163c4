"""Reference kernel: a fixed, deterministic amount of CPU work.

The benchmark times this kernel in the same process, on the same pinned
vCPU, right after every unit of campaign work, and divides the unit's time
by it.  Host speed that drifts between (or within) runs then cancels out
of the reported throughput.  The kernel never changes with ``src/``: a
change here redefines the reference-second and resets every baseline.

Its instruction mix imitates the simulator's: a binary heap of timed
events dispatched to small slotted objects (method calls, attribute and
dict traffic, float arithmetic, ``random`` draws), a little NumPy array
work, and record encoding through ``json`` and ``sha256`` as the journal
does.  A kernel built from heap and dict work alone did not track the
short-run sweep, whose fixed per-run costs are encoding and hashing.  A
variant that also made random accesses across a multi-MiB store tracked
every workload worse (run-to-run spread 1.5-6 % instead of 0.5-1.6 %).

``vector=True`` selects the mix of the seed-batch engine, which spends
most of its time in small NumPy operations over a (lanes, nodes, actions)
array: the array step runs every other event and adds masked updates and
reductions over such an array.  On star-batch it halved the spread that
the default mix left (4.0 % against 7.3 % on a noisy host).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random

import numpy as np

#: Events dispatched per kernel repeat.
EVENTS_PER_REPEAT = 1500

#: Every this many events, one record is encoded, hashed and decoded.
RECORD_EVERY = 60

#: Every this many events, one small vectorised update runs.
ARRAY_EVERY = 25

#: The array step's period in the vector mix.
VECTOR_EVERY = 2

#: Reference-seconds one kernel repeat is worth: a reference-second is the
#: time the kernel takes for ``1 / REF_S_PER_REPEAT`` repeats.  On a 2-vCPU
#: x86-64 VM with Python 3.11 a repeat took 1.7-4.2 ms as the host's speed
#: drifted, so a reference-second is roughly a wall second there.
REF_S_PER_REPEAT = 0.003

_NODES = 8


class _Node:
    __slots__ = ("ident", "queue", "sent", "counters", "level")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.queue: list = []
        self.sent = 0
        self.counters: dict = {}
        self.level = 0.0

    def on_event(self, now: float, rng: random.Random) -> float:
        if rng.random() < 0.45:
            self.queue.append(now)
        kind = "tx" if self.queue else "idle"
        self.counters[kind] = self.counters.get(kind, 0) + 1
        if self.queue and rng.random() < 0.6:
            self.queue.pop(0)
            self.sent += 1
        self.level = 0.9 * self.level + 0.1 * len(self.queue)
        return 0.001 + rng.random() * 0.004


def _repeat(rng: random.Random, table: np.ndarray, vector: bool) -> int:
    every = VECTOR_EVERY if vector else ARRAY_EVERY
    lanes = np.full((4, _NODES, 4), 0.6)
    nodes = [_Node(i) for i in range(_NODES)]
    heap = [(rng.random() * 0.01, i, i) for i in range(_NODES)]
    heapq.heapify(heap)
    seq = _NODES
    checksum = 0
    for step in range(EVENTS_PER_REPEAT):
        now, _, ident = heapq.heappop(heap)
        node = nodes[ident]
        delay = node.on_event(now, rng)
        seq += 1
        heapq.heappush(heap, (now + delay, seq, ident))
        if step % every == 0:
            row = table[ident]
            row *= 0.95
            row[int(np.argmax(row))] += node.level
            checksum += int(np.count_nonzero(row > 1.0))
            if vector:
                plane = lanes[:, ident, :]
                lanes[:, ident, :] = np.where(plane > 0.5, plane * 0.9, plane + 0.1)
                checksum += int(np.argmax(lanes.max(axis=2).sum(axis=0)))
        if step % RECORD_EVERY == 0:
            record = {
                "node": ident,
                "now": round(now, 9),
                "sent": node.sent,
                "counters": node.counters,
                "queue": len(node.queue),
            }
            payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            checksum += json.loads(payload)["sent"] + int(digest[:6], 16)
    return checksum + sum(node.sent for node in nodes)


def reference_kernel(repeats: int, vector: bool = False) -> int:
    """Run ``repeats`` kernel repeats; return a checksum of the work done.

    The work depends on nothing but the arguments: every call with the
    same arguments executes the same operations and returns the same
    checksum.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    rng = random.Random(0x51A)
    table = np.ones((_NODES, 16))
    checksum = 0
    for _ in range(repeats):
        checksum = (checksum * 31 + _repeat(rng, table, vector)) % (1 << 61)
    return checksum
