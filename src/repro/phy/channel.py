"""The shared wireless channel and its interference models.

The channel keeps track of every transmission that is currently on the air.
Two interference models are available:

**Collision model** (``interference="collision"``, the default — the
paper's evaluation world).  A frame is delivered to a receiver if and only
if

* the receiver is within range of the sender,
* no other transmission from a node within range of *that receiver*
  overlaps the frame in time (no capture effect),
* the receiver is not itself transmitting during the frame, and
* the per-link error process (if configured) does not drop the frame.

**SINR model** (``interference="sinr"``).  Every directed link carries a
received power (:meth:`WirelessChannel.set_link_power`, fed from the
propagation model's ``received_power_dbm``).  A frame is decodable at a
receiver while its signal power divided by (noise floor + the sum of every
other concurrently arriving or sensed transmission's power at that
receiver) stays at or above the capture threshold
(``sinr_threshold_db``).  The strongest overlapping frame therefore
*survives* overlap — the capture effect — while the collision model would
destroy both.  Corruption is monotone: interference at a receiver only
grows when a new transmitter starts, so frames are re-evaluated exactly at
each transmission start; a transmitter stopping only lowers interference
and can never corrupt, which makes the sticky per-receiver corruption flag
equivalent to continuous re-evaluation.  Carrier sensing is decoupled from
decoding: :meth:`connect_sensed` links (inside carrier-sense range, beyond
communication range) contribute interference and drive CCA busy but are
never synchronised on, so they produce neither deliveries nor
``notify_corrupted_frame`` events.

Because interference is evaluated per receiver, hidden terminals behave as
in the paper: two senders that cannot hear each other will individually pass
their CCA and still collide at their common receiver.

Frames are delivered to every in-range radio, not only the addressed one;
the MAC layer decides what to do with overheard frames.  QMA relies on this
to reward ``QBackoff`` when a foreign DATA or ACK frame is overheard.

Static link table
-----------------
Topologies in this reproduction are static: links are wired (or derived
from a propagation model) once at network construction and never change
during a run.  The channel delivers over a precomputed *link table* —
per sender, an ordered row of ``(receiver_id, radio, arriving_list,
packet_error_rate, signal_mw)`` tuples — built lazily on the first
transmission, so the per-delivery path is a flat iteration over prebuilt
rows instead of set/dict lookups per receiver.  Each row keeps the
neighbour-set iteration order, so per-link error draws consume the
channel RNG in wiring order.

Links are fixed after the first transmission: every wiring call
(``register`` / ``connect`` / ``connect_sensed`` / ``set_link_error_rate``
/ ``set_link_power``) made after it raises :class:`RuntimeError`.

Prebuilt skeleton
-----------------
The construction cache (:mod:`repro.scenario.artifacts`) shares one
link-table *skeleton* — per sender, the ordered ``(receiver_id,
rx_power_dbm, PER)`` rows — across every run of a sweep.
:meth:`WirelessChannel.preset_link_table` installs such a skeleton after
wiring; the first transmission then maps it onto this run's radios and
arriving lists instead of re-deriving the receiver order from the
neighbour sets.  The skeleton is read-only and shared: wiring after the
preset only drops this channel's reference (the table is then derived
from the live wiring), so no run ever edits the bundle other runs still
consume.  The SINR model rides the same table: its rows additionally
carry the precomputed linear signal power, and a parallel *sense table*
maps senders onto the sensing lists of their carrier-sense-only
receivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.phy.frames import Frame
from repro.phy.params import PhyParameters
from repro.phy.propagation import PropagationModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator

#: One precomputed delivery target:
#: (receiver_id, radio, arriving, per, signal_mw).  ``signal_mw`` is the
#: linear received power of the directed link, 0.0 under the collision
#: model (which never reads it).
_LinkRow = Tuple[int, "Radio", List["ActiveTransmission"], float, float]

#: One precomputed carrier-sense-only target: (receiver_id, sensing list).
_SenseRow = Tuple[int, List["ActiveTransmission"]]

#: Interference models accepted by :class:`WirelessChannel`.
INTERFERENCE_MODELS = ("collision", "sinr")

#: Default capture threshold of the SINR model, in dB.  A frame survives
#: while its signal exceeds noise + interference by at least this margin —
#: the usual O-QPSK co-channel rejection ballpark.
DEFAULT_SINR_THRESHOLD_DB = 10.0


@dataclass
class ActiveTransmission:
    """Book-keeping for a frame that is currently on the air."""

    sender_id: int
    frame: Frame
    start: float
    end: float
    #: The sender's link-table row, taken at transmission start.
    rows: Sequence[_LinkRow]
    corrupted_for: Set[int] = field(default_factory=set)
    #: The sender's sense-table row (SINR model only).
    sense_rows: Sequence[_SenseRow] = ()


class WirelessChannel:
    """A broadcast medium with per-receiver interference.

    Parameters
    ----------
    sim:
        The simulation engine.
    phy:
        PHY timing parameters (shared by all radios on the channel).
    interference:
        ``"collision"`` (default) — the paper's binary overlap model;
        ``"sinr"`` — signal-power interference with capture (see the
        module docstring).  SINR channels need per-link received powers
        (:meth:`set_link_power`); :class:`~repro.net.network.Network`
        wires them from the propagation model or the cached skeleton.
    sinr_threshold_db:
        Capture threshold of the SINR model (ignored by the collision
        model).
    """

    _EMPTY_NEIGHBOURS: AbstractSet[int] = frozenset()

    def __init__(
        self,
        sim: "Simulator",
        phy: Optional[PhyParameters] = None,
        interference: str = "collision",
        sinr_threshold_db: float = DEFAULT_SINR_THRESHOLD_DB,
    ) -> None:
        if interference not in INTERFERENCE_MODELS:
            raise ValueError(
                f"unknown interference model {interference!r}; "
                f"expected one of {INTERFERENCE_MODELS}"
            )
        self.sim = sim
        self.phy = phy if phy is not None else PhyParameters()
        self.interference = interference
        self.sinr_threshold_db = sinr_threshold_db
        self._sinr = interference == "sinr"
        self._radios: Dict[int, "Radio"] = {}
        self._neighbours: Dict[int, Set[int]] = {}
        #: carrier-sense-only neighbours: sensed (energy, CCA) but not
        #: decodable.  Disjoint from ``_neighbours`` by construction.
        self._cs_neighbours: Dict[int, Set[int]] = {}
        self._link_error: Dict[tuple, float] = {}
        #: linear received power (mW) per directed (sender, receiver) link,
        #: covering communication and carrier-sense-only links alike.
        self._power_mw: Dict[Tuple[int, int], float] = {}
        #: transmissions currently arriving at each radio (keyed by radio id)
        self._arriving: Dict[int, List[ActiveTransmission]] = {}
        #: transmissions currently sensed-only at each radio
        self._sensing: Dict[int, List[ActiveTransmission]] = {}
        self._rng = sim.rng.stream("channel")
        self._link_table: Optional[Dict[int, Tuple[_LinkRow, ...]]] = None
        self._sense_table: Optional[Dict[int, Tuple[_SenseRow, ...]]] = None
        #: Shared (receiver_id, power_dbm, PER) skeleton installed by
        #: preset_link_table; read-only — later wiring drops the
        #: reference, never edits it.
        self._skeleton: Optional[Mapping[int, Sequence[Tuple[int, float, float]]]] = None
        self._noise_mw = 10.0 ** (self.phy.noise_floor_dbm / 10.0)
        self._capture_ratio = 10.0 ** (sinr_threshold_db / 10.0)
        # statistics
        self.transmissions_started = 0
        self.frames_delivered = 0
        self.frames_corrupted = 0
        self.frames_lost_link_error = 0

    # --------------------------------------------------------------- wiring
    def _begin_wiring(self) -> None:
        """Guard of every wiring call: links are fixed after first use.

        Before the first transmission wiring is free, though a preset
        skeleton no longer matching the wiring is dropped (the table is
        then derived from the live neighbour sets).  A shared skeleton is
        never edited, only dereferenced, so other runs consuming the same
        bundle are unaffected.
        """
        if self._link_table is not None:
            raise RuntimeError("links are fixed after the first transmission")
        self._skeleton = None

    def register(self, radio: "Radio") -> None:
        """Attach a radio to the channel."""
        self._begin_wiring()
        if radio.node_id in self._radios:
            raise ValueError(f"radio id {radio.node_id} already registered")
        self._radios[radio.node_id] = radio
        self._neighbours.setdefault(radio.node_id, set())
        arriving: List[ActiveTransmission] = []
        self._arriving.setdefault(radio.node_id, arriving)
        self._sensing.setdefault(radio.node_id, [])
        # The radio keeps direct references to its arriving and sensing
        # lists so CCA needs no dict lookups (see Radio.cca).
        radio._rx_arriving = self._arriving[radio.node_id]
        radio._rx_sensing = self._sensing[radio.node_id]

    def radios(self) -> Iterable["Radio"]:
        return self._radios.values()

    def radio(self, node_id: int) -> "Radio":
        return self._radios[node_id]

    def connect(self, a: int, b: int, bidirectional: bool = True) -> None:
        """Declare that node ``b`` can hear transmissions of node ``a``."""
        self._begin_wiring()
        if a == b:
            raise ValueError("a node cannot be its own neighbour")
        if self.senses(b, a) or (bidirectional and self.senses(a, b)):
            raise ValueError(f"nodes {a} and {b} already share a sensed-only link")
        self._neighbours.setdefault(a, set()).add(b)
        if bidirectional:
            self._neighbours.setdefault(b, set()).add(a)

    def build_links_from_positions(self, model: PropagationModel) -> None:
        """Derive connectivity from radio positions using a propagation model."""
        ids = list(self._radios)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                pos_a = self._radios[a].position
                pos_b = self._radios[b].position
                if pos_a is None or pos_b is None:
                    raise ValueError("all radios need positions to derive links")
                if model.in_range(pos_a, pos_b):
                    self.connect(a, b, bidirectional=False)
                if model.in_range(pos_b, pos_a):
                    self.connect(b, a, bidirectional=False)

    def set_link_error_rate(self, a: int, b: int, per: float, bidirectional: bool = True) -> None:
        """Set the packet error rate of the link from ``a`` to ``b``."""
        self._begin_wiring()
        if not 0.0 <= per <= 1.0:
            raise ValueError("packet error rate must lie in [0, 1]")
        self._link_error[(a, b)] = per
        if bidirectional:
            self._link_error[(b, a)] = per

    # ------------------------------------------------------ SINR link wiring
    def set_link_power(self, sender: int, receiver: int, power_dbm: float) -> None:
        """Set the received power of the directed link ``sender -> receiver``.

        Consumed by the SINR interference model for both decodable links
        (signal and interference) and sensed-only links (interference).
        Harmless no-op data under the collision model.
        """
        self._begin_wiring()
        self._power_mw[(sender, receiver)] = 10.0 ** (power_dbm / 10.0)

    def connect_sensed(self, sender: int, receiver: int, power_dbm: float) -> None:
        """Declare that ``receiver`` *senses* (but cannot decode) ``sender``.

        Sensed-only transmissions contribute interference at the receiver
        and drive its CCA busy, but are never delivered and never raise
        ``notify_corrupted_frame`` — the receiver cannot synchronise on
        them in the first place.
        """
        self._begin_wiring()
        if sender == receiver:
            raise ValueError("a node cannot sense itself")
        if self.hears(receiver, sender):
            raise ValueError(
                f"link {sender}->{receiver} is already a communication link"
            )
        self._cs_neighbours.setdefault(sender, set()).add(receiver)
        self._power_mw[(sender, receiver)] = 10.0 ** (power_dbm / 10.0)

    def senses(self, receiver: int, sender: int) -> bool:
        """True if ``receiver`` senses (without decoding) ``sender``."""
        return receiver in self._cs_neighbours.get(sender, self._EMPTY_NEIGHBOURS)

    # ----------------------------------------------------------- link table
    def preset_link_table(
        self, skeleton: Mapping[int, Sequence[Tuple[int, float, float]]]
    ) -> None:
        """Install a shared ``sender -> ((receiver, power_dbm, PER), ...)`` skeleton.

        Called by :class:`~repro.net.network.Network` after wiring when the
        scenario builder supplied cached construction artifacts; the first
        transmission then maps the skeleton onto this run's radios and
        arriving lists instead of re-deriving receiver order from the
        neighbour sets.  The skeleton must describe exactly the current
        wiring — any later wiring call discards it.
        """
        if self._link_table is not None:
            raise RuntimeError("cannot preset the link table after its first use")
        self._skeleton = skeleton

    def _build_link_table(self) -> Dict[int, Tuple[_LinkRow, ...]]:
        """Precompute per-sender delivery rows (neighbour-set order kept).

        Signal powers come from the channel's own ``_power_mw`` wiring (the
        skeleton's power column was already applied through
        :meth:`set_link_power` at construction), so the skeleton-mapped and
        live-derived tables agree by construction.
        """
        radios = self._radios
        arriving = self._arriving
        power = self._power_mw
        skeleton = self._skeleton
        if skeleton is not None:
            table = {
                sender_id: tuple(
                    (
                        receiver_id,
                        radios[receiver_id],
                        arriving[receiver_id],
                        per,
                        power.get((sender_id, receiver_id), 0.0),
                    )
                    for receiver_id, _power_dbm, per in skeleton.get(sender_id, ())
                )
                for sender_id in radios
            }
        else:
            link_error = self._link_error
            table = {
                sender_id: tuple(
                    (
                        receiver_id,
                        radios[receiver_id],
                        arriving[receiver_id],
                        link_error.get((sender_id, receiver_id), 0.0),
                        power.get((sender_id, receiver_id), 0.0),
                    )
                    for receiver_id in self._neighbours.get(sender_id, ())
                )
                for sender_id in radios
            }
        self._link_table = table
        if self._sinr:
            sensing = self._sensing
            self._sense_table = {
                sender_id: tuple(
                    (receiver_id, sensing[receiver_id])
                    for receiver_id in self._cs_neighbours.get(sender_id, ())
                )
                for sender_id in radios
            }
        return table

    def neighbours(self, node_id: int) -> Set[int]:
        """Node ids that can hear transmissions of ``node_id`` (a fresh copy)."""
        return set(self._neighbours.get(node_id, self._EMPTY_NEIGHBOURS))

    def hears(self, receiver: int, sender: int) -> bool:
        """True if ``receiver`` is within range of ``sender``."""
        return receiver in self._neighbours.get(sender, self._EMPTY_NEIGHBOURS)

    # ------------------------------------------------------------- carrier
    def is_busy_for(self, node_id: int) -> bool:
        """Channel state as seen by a CCA performed at ``node_id``.

        The channel is busy if any transmission from a node within range of
        ``node_id`` is currently on the air, or if ``node_id`` itself is
        transmitting.  Under the SINR model, sensed-only energy (inside
        carrier-sense range, beyond decode range) also reads busy.
        """
        radio = self._radios[node_id]
        if radio.transmitting:
            return True
        if self._arriving.get(node_id):
            return True
        return bool(self._sensing.get(node_id))

    # --------------------------------------------------------- transmission
    def begin_transmission(self, sender: "Radio", frame: Frame, duration: float) -> None:
        """Start a transmission of ``frame`` by ``sender`` lasting ``duration`` seconds."""
        table = self._link_table
        if table is None:
            table = self._build_link_table()
        now = self.sim.now
        tx = ActiveTransmission(
            sender.node_id, frame, now, now + duration, table[sender.node_id]
        )
        self.transmissions_started += 1
        if self._sinr:
            self._begin_sinr(tx)
        else:
            corrupted_for = tx.corrupted_for
            for receiver_id, radio, arriving, _per, _signal in tx.rows:
                if arriving:
                    # Overlap with everything currently arriving at this receiver.
                    corrupted_for.add(receiver_id)
                    for other in arriving:
                        other.corrupted_for.add(receiver_id)
                if radio.transmitting:
                    # Half-duplex: a transmitting radio cannot receive.
                    corrupted_for.add(receiver_id)
                arriving.append(tx)
        self.sim.schedule(duration, self._end_transmission, tx)

    def _begin_sinr(self, tx: ActiveTransmission) -> None:
        """Start a transmission under the SINR interference model.

        The new frame is appended to the arriving list of each decodable
        receiver and the sensing list of each carrier-sense-only receiver;
        every receiver whose interference grew is re-evaluated once
        (corruption is monotone, so starts are the only points where a
        frame can newly fail the threshold).
        """
        corrupted_for = tx.corrupted_for
        sense_rows = self._sense_table[tx.sender_id]
        tx.sense_rows = sense_rows
        for receiver_id, radio, arriving, _per, _signal in tx.rows:
            if radio.transmitting:
                # Half-duplex: a transmitting radio cannot receive.
                corrupted_for.add(receiver_id)
            arriving.append(tx)
            self._reevaluate(receiver_id, arriving)
        for receiver_id, sensing in sense_rows:
            sensing.append(tx)
            arriving = self._arriving[receiver_id]
            if arriving:
                self._reevaluate(receiver_id, arriving)

    def _reevaluate(self, receiver_id: int, arriving: List[ActiveTransmission]) -> None:
        """Re-apply the SINR threshold to every frame arriving at a receiver.

        Interference is summed fresh over the arriving and sensing lists in
        insertion (chronological) order, so the float summation order is
        fixed by the event order alone.  Already-corrupted frames stay
        corrupted (sticky flag).
        """
        power = self._power_mw
        noise = self._noise_mw
        threshold = self._capture_ratio
        if len(arriving) == 1 and not self._sensing[receiver_id]:
            # Lone frame: only the noise floor opposes it.
            tx = arriving[0]
            if receiver_id not in tx.corrupted_for:
                signal = power.get((tx.sender_id, receiver_id), 0.0)
                if signal < threshold * noise:
                    tx.corrupted_for.add(receiver_id)
            return
        total = noise
        for other in arriving:
            total += power.get((other.sender_id, receiver_id), 0.0)
        for other in self._sensing[receiver_id]:
            total += power.get((other.sender_id, receiver_id), 0.0)
        for tx in arriving:
            if receiver_id in tx.corrupted_for:
                continue
            signal = power.get((tx.sender_id, receiver_id), 0.0)
            if signal < threshold * (total - signal):
                tx.corrupted_for.add(receiver_id)

    def notify_transmit_start(self, node_id: int) -> None:
        """Called by a radio when it switches to transmit mode.

        Any frame that is currently being received by this radio is lost
        (half-duplex operation).
        """
        for tx in self._arriving.get(node_id, []):
            tx.corrupted_for.add(node_id)

    def _end_transmission(self, tx: ActiveTransmission) -> None:
        corrupted_for = tx.corrupted_for
        rng_random = self._rng.random
        for receiver_id, receiver, arriving, per, _signal in tx.rows:
            arriving.remove(tx)
            if receiver_id in corrupted_for:
                self.frames_corrupted += 1
                receiver.notify_corrupted_frame(tx.frame)
                continue
            if receiver.transmitting:
                # Receiver started transmitting exactly at the boundary.
                self.frames_corrupted += 1
                receiver.notify_corrupted_frame(tx.frame)
                continue
            if per > 0.0 and rng_random() < per:
                self.frames_lost_link_error += 1
                continue
            self.frames_delivered += 1
            receiver.deliver(tx.frame)
        # Sensed-only receivers just stop seeing the energy — no delivery,
        # no corruption notification (they never synchronised on the frame).
        for _receiver_id, sensing in tx.sense_rows:
            sensing.remove(tx)
        self._radios[tx.sender_id].transmission_finished(tx.frame)
