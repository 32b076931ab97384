"""The discrete-event engine.

A single :class:`Simulator` instance owns the virtual clock and a
hierarchical timer wheel.  Entries are ``(time, seq, event)`` tuples;
``seq`` is a monotone tiebreaker so same-timestamp events fire in
schedule order, which keeps runs fully deterministic.  Tuples (not event
objects) are what the wheel stores and the heaps compare, so every
ordering operation runs at C speed.

Wheel layout (see docs/ENGINE.md for the full invariants):

* the **active heap** holds the slot currently being drained, plus any
  event scheduled at-or-before the cursor (``call_soon`` and zero-delay
  self-rescheduling land here);
* **L0** — 256 slots of 1024 ns — absorbs the dense softirq/NIC timer
  traffic with O(1) list appends;
* **L1** — 256 slots of 262144 ns — holds the mid-range timers (GRO
  flushes, merge progress checks) and cascades one slot at a time into
  L0 as the cursor crosses interval boundaries;
* the **overflow heap** takes far-future timers (beyond ~67 ms) and is
  promoted into the wheel whenever the window advances.

Every level orders identically by ``(time, seq)``: slot lists are
heapified when they become active, so the global fire order is exactly
the order a single sorted heap would produce, bit for bit.

Hot-path producers (cores, wires, softirq timers) schedule through the
no-handle :meth:`Simulator._sched` family, which draws events from a
free list and recycles them after firing — no per-event allocation or GC
pressure.  The public ``call_*`` API still returns cancellable events;
those are never recycled, so a held handle stays valid forever.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

#: _Event.state machine: PENDING -> FIRED (public events, terminal)
#:                       PENDING -> CANCELLED (terminal; skipped by run)
#:                       PENDING -> FREE (pooled events, recycled -> PENDING)
_PENDING = 0
_FIRED = 1
_CANCELLED = 2
_FREE = 3

# Wheel geometry.  L0 slot width is 2**10 ns so ``time * _INV_SLOT_NS``
# is an exact binary scaling (no float rounding can ever disagree with
# ``time // 1024``); one L1 slot covers one full L0 window.
_L0_BITS = 8
_L0_MASK = (1 << _L0_BITS) - 1
_L1_SLOTS = 1 << _L0_BITS
_SLOT_NS = 1024.0
_INV_SLOT_NS = 1.0 / _SLOT_NS


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. scheduling in the past)."""


class _Event:
    """A cancellable scheduled callback (returned by :meth:`Simulator.call_in`).

    ``gen`` counts recycles of a pooled event; a stale handle held across
    a recycle raises :class:`SimulationError` instead of silently
    cancelling whatever callback reused the object.
    """

    __slots__ = ("time", "seq", "fn", "args", "state", "gen", "pooled", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: Tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.state = _PENDING
        self.gen = 0
        self.pooled = False
        self.sim = sim

    @property
    def cancelled(self) -> bool:
        return self.state == _CANCELLED

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent; cancelling an
        already-fired event is a harmless no-op."""
        state = self.state
        if state == _PENDING:
            self.state = _CANCELLED
            if self.sim is not None:
                self.sim._note_cancelled()
        elif state == _FREE:
            raise SimulationError(
                f"stale event handle: recycled {self.gen} generation(s) ago"
            )
        # _CANCELLED: idempotent; _FIRED: too late, nothing left to undo

    def __lt__(self, other: "_Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = {0: "", 1: " fired", 2: " cancelled", 3: " free"}
        return f"<Event t={self.time} seq={self.seq} {self.fn!r}{names[self.state]}>"


class Simulator:
    """Timer-wheel discrete-event simulator with a nanosecond clock."""

    #: compaction only kicks in past this pending count (tiny wheels never pay it)
    COMPACT_MIN_EVENTS = 64

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        self._running = False
        self._cancelled: int = 0
        #: total entries across every wheel level (including cancelled)
        self._npending: int = 0
        #: heap draining the cursor slot; also takes at-or-before-cursor inserts
        self._active: List[tuple] = []
        self._slot0: List[list] = [[] for _ in range(_L1_SLOTS)]
        self._slot1: List[list] = [[] for _ in range(_L1_SLOTS)]
        #: far-future overflow, a plain (time, seq, ev) heap
        self._far: List[tuple] = []
        #: absolute L0 index covered by the active heap
        self._cur0: int = 0
        #: absolute L1 index whose interval L0 currently expands
        self._cur1: int = 0
        #: entries resident in _slot1 (skips the scan when zero)
        self._n1: int = 0
        #: free list of recycled internal events (see _sched)
        self._pool: List[_Event] = []
        self.events_executed: int = 0
        #: optional :class:`repro.perf.selfprof.SelfProfiler` and
        #: :class:`repro.resilience.checkpoint.Checkpointer` (at most one
        #: is attached); when both are None (the default) :meth:`run`
        #: takes its uninstrumented loop, bit-identical by construction
        self.profiler: Optional[Any] = None
        self.checkpointer: Optional[Any] = None

    # ------------------------------------------------------------ persistence
    def __getstate__(self) -> dict:
        """Checkpoints snapshot the simulator mid-``run()``; a restored
        instance must be re-enterable, so the running flag is cleared."""
        state = self.__dict__.copy()
        state["_running"] = False
        return state

    def checkpoint_every(
        self,
        checkpointer: Optional[Any],
        *,
        sim_ns: Optional[float] = None,
        wall_s: Optional[float] = None,
    ) -> None:
        """Attach (or with ``None`` detach) a periodic checkpointer.

        ``sim_ns`` / ``wall_s`` override the checkpointer's own snapshot
        intervals when given.  The checkpointer and the self-profiler
        are both run-loop hooks and the hooked loop drives only one, so
        they are mutually exclusive.
        """
        if checkpointer is not None and self.profiler is not None:
            raise SimulationError(
                "checkpointing and self-profiling are mutually exclusive"
            )
        if checkpointer is not None:
            if sim_ns is not None:
                checkpointer.every_sim_ns = sim_ns
            if wall_s is not None:
                checkpointer.every_wall_s = wall_s
        self.checkpointer = checkpointer

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------- placement
    def _place(self, time_ns: float, seq: int, ev: _Event) -> int:
        """File one entry into the right wheel level; returns the level
        (0=active, 1=L0, 2=L1, 3=overflow) for profiler attribution.

        Does *not* touch the pending count — callers that insert a new
        event account for it; cascade/promotion moves must not.

        Kept in lockstep with the inlined copy in :meth:`_sched`.
        """
        idx0 = int(time_ns * _INV_SLOT_NS)
        if idx0 <= self._cur0:
            heappush(self._active, (time_ns, seq, ev))
            return 0
        idx1 = idx0 >> _L0_BITS
        if idx1 == self._cur1:
            self._slot0[idx0 & _L0_MASK].append((time_ns, seq, ev))
            return 1
        if idx1 - self._cur1 < _L1_SLOTS:
            self._slot1[idx1 & _L0_MASK].append((time_ns, seq, ev))
            self._n1 += 1
            return 2
        heappush(self._far, (time_ns, seq, ev))
        return 3

    # ------------------------------------------------------------- scheduling
    def call_in(self, delay_ns: float, fn: Callable[..., Any], *args: Any) -> _Event:
        """Schedule ``fn(*args)`` to run ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        return self.call_at(self._now + delay_ns, fn, *args)

    def call_at(self, time_ns: float, fn: Callable[..., Any], *args: Any) -> _Event:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} (now={self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = _Event(time_ns, seq, fn, args, sim=self)
        level = self._place(time_ns, seq, ev)
        self._npending += 1
        if self.profiler is not None:
            self.profiler.note_push(self._npending, level)
        return ev

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> _Event:
        """Schedule ``fn(*args)`` at the current time (after pending same-time events)."""
        return self.call_at(self._now, fn, *args)

    # ------------------------------------------------- pooled hot-path variants
    def _sched(self, time_ns: float, fn: Callable[..., Any], args: Tuple) -> None:
        """No-handle scheduling for trusted internal producers.

        The event comes from the free list and is recycled right after
        firing, so the packet hot path (core completions, wire
        deliveries, softirq timers) allocates nothing per event.  No
        past-time validation and no handle is returned — callers that
        might cancel must use :meth:`call_at`.
        """
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            ev = pool.pop()
            ev.time = time_ns
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev.state = _PENDING
        else:
            ev = _Event(time_ns, seq, fn, args, sim=self)
            ev.pooled = True
        # inlined _place (kept in lockstep; the call costs more than the body)
        idx0 = int(time_ns * _INV_SLOT_NS)
        if idx0 <= self._cur0:
            heappush(self._active, (time_ns, seq, ev))
            level = 0
        else:
            idx1 = idx0 >> _L0_BITS
            if idx1 == self._cur1:
                self._slot0[idx0 & _L0_MASK].append((time_ns, seq, ev))
                level = 1
            elif idx1 - self._cur1 < _L1_SLOTS:
                self._slot1[idx1 & _L0_MASK].append((time_ns, seq, ev))
                self._n1 += 1
                level = 2
            else:
                heappush(self._far, (time_ns, seq, ev))
                level = 3
        self._npending += 1
        prof = self.profiler
        if prof is not None:
            prof.note_push(self._npending, level)

    def sched_in(self, delay_ns: float, fn: Callable[..., Any], *args: Any) -> None:
        """Pooled, no-handle :meth:`call_in` for internal timers."""
        self._sched(self._now + delay_ns, fn, args)

    def sched_at(self, time_ns: float, fn: Callable[..., Any], *args: Any) -> None:
        """Pooled, no-handle :meth:`call_at` for internal timers."""
        self._sched(time_ns, fn, args)

    def sched_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Pooled, no-handle :meth:`call_soon` for internal wakeups."""
        self._sched(self._now, fn, args)

    # ------------------------------------------------------ cancelled events
    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._npending >= self.COMPACT_MIN_EVENTS
            and self._cancelled * 2 > self._npending
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from every wheel level once more than
        half the pending set is dead.

        Long runs with many cancelled timers (e.g. per-packet timeouts that
        almost always get cancelled) would otherwise bloat the wheel and slow
        every slot drain; compaction keeps it proportional to *live* events.
        The active heap is rebuilt in place so the run() loop's local
        reference stays valid.
        """
        active = self._active
        active[:] = [e for e in active if not e[2].state]
        heapify(active)
        live = len(active)
        slot0 = self._slot0
        for i in range(_L1_SLOTS):
            s = slot0[i]
            if s:
                slot0[i] = s = [e for e in s if not e[2].state]
                live += len(s)
        n1 = 0
        slot1 = self._slot1
        for i in range(_L1_SLOTS):
            s = slot1[i]
            if s:
                slot1[i] = s = [e for e in s if not e[2].state]
                n1 += len(s)
        live += n1
        far = [e for e in self._far if not e[2].state]
        heapify(far)
        self._far = far
        live += len(far)
        self._n1 = n1
        self._npending = live
        self._cancelled = 0
        if self.profiler is not None:
            self.profiler.note_compaction()

    # ------------------------------------------------------- wheel advancement
    def _refill(self) -> bool:
        """Advance the cursor to the next occupied L0 slot and load it as
        the active heap.  Returns False when no events remain anywhere."""
        slot0 = self._slot0
        while True:
            end0 = (self._cur1 + 1) << _L0_BITS
            i = self._cur0 + 1
            while i < end0:
                s = slot0[i & _L0_MASK]
                if s:
                    self._cur0 = i
                    slot0[i & _L0_MASK] = []
                    if len(s) > 1:
                        heapify(s)
                    self._active = s
                    return True
                i += 1
            self._cur0 = end0 - 1
            if not self._advance_l1():
                return False

    def _advance_l1(self) -> bool:
        """Move to the next occupied L1 interval, cascading its slot into
        L0 — or, when L1 is empty, jump the whole window to the overflow
        heap's horizon and promote everything it now covers."""
        far = self._far
        if self._n1:
            slot1 = self._slot1
            j = self._cur1 + 1
            while True:  # _n1 > 0 guarantees a hit within the window
                s = slot1[j & _L0_MASK]
                if s:
                    break
                j += 1
            jumped = False
        elif far:
            j = int(far[0][0] * _INV_SLOT_NS) >> _L0_BITS
            s = None
            jumped = True
        else:
            return False
        self._cur1 = j
        self._cur0 = (j << _L0_BITS) - 1
        place = self._place
        if s:
            self._slot1[j & _L0_MASK] = []
            self._n1 -= len(s)
            for t, seq, ev in s:
                place(t, seq, ev)  # lands in the freshly opened L0 window
        # promote overflow entries the advanced window now covers, so the
        # "far entries lie beyond the L1 horizon" invariant is restored
        if far:
            horizon = j + _L1_SLOTS
            while far and int(far[0][0] * _INV_SLOT_NS) >> _L0_BITS < horizon:
                t, seq, ev = heappop(far)
                place(t, seq, ev)
        if self.profiler is not None:
            self.profiler.note_cascade(jumped)
        return True

    def _pop_entry(self) -> Optional[tuple]:
        """Remove and return the globally earliest ``(time, seq, ev)``
        entry, or None when the wheel is empty.  Decrements the pending
        count; cancelled-entry bookkeeping is the caller's job."""
        active = self._active
        while not active:
            if not self._refill():
                return None
            active = self._active
        self._npending -= 1
        return heappop(active)

    # ---------------------------------------------------------------- running
    def run(self, until_ns: Optional[float] = None) -> None:
        """Execute events until the wheel is empty or the clock passes ``until_ns``.

        When ``until_ns`` is given, the clock is left exactly at ``until_ns``
        (events scheduled later stay on the wheel), matching the convention of
        measurement windows: ``sim.run(until_ns=window_end)``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            hook = self.profiler if self.profiler is not None else self.checkpointer
            if hook is not None:
                self._run_hooked(until_ns, hook)
                return
            until = float("inf") if until_ns is None else until_ns
            pop = heappop
            pool = self._pool
            active = self._active
            while True:
                if active:
                    entry = pop(active)
                    t = entry[0]
                    if t > until:
                        # no callback ran since the pop: reinserting the
                        # entry restores the exact pre-pop wheel state
                        self._place(t, entry[1], entry[2])
                        break
                    self._npending -= 1
                    ev = entry[2]
                    if ev.state:  # cancelled (only external handles can be)
                        self._cancelled -= 1
                        continue
                    self._now = t
                    self.events_executed += 1
                    fn = ev.fn
                    args = ev.args
                    if ev.pooled:
                        ev.fn = None
                        ev.args = None
                        ev.state = _FREE
                        ev.gen += 1
                        pool.append(ev)
                    else:
                        ev.state = _FIRED
                    fn(*args)
                else:
                    if not self._refill():
                        break
                    active = self._active
            if until_ns is not None and self._now < until_ns:
                self._now = until_ns
        finally:
            self._running = False

    def _fire(self, entry: tuple) -> None:
        """Shared fire path of the hooked loop and :meth:`step`: mark or
        recycle the event and invoke its callback.  Semantically
        identical to the inlined body in :meth:`run`."""
        ev = entry[2]
        self._now = entry[0]
        self.events_executed += 1
        fn = ev.fn
        args = ev.args
        if ev.pooled:
            ev.fn = None
            ev.args = None
            ev.state = _FREE
            ev.gen += 1
            self._pool.append(ev)
        else:
            ev.state = _FIRED
        fn(*args)

    def _run_hooked(self, until_ns: Optional[float], hook: Any) -> None:
        """The run loop with a hook attached: identical event semantics,
        but every live event is fired through ``hook.fire(sim, entry)``,
        bracketed by ``hook.begin(sim)`` and ``hook.end(sim)``.

        The hook is the :class:`~repro.perf.selfprof.SelfProfiler`
        (wall-clock attribution per callback) or the
        :class:`~repro.resilience.checkpoint.Checkpointer` (snapshots
        between events).  Both only read state, so simulated results are
        bit-identical with or without one.  Heap-traffic counters go to
        the profiler exactly as in the scheduling paths.
        """
        prof = self.profiler
        hook.begin(self)
        try:
            while True:
                entry = self._pop_entry()
                if entry is None:
                    break
                if prof is not None:
                    prof.heap_pops += 1
                if until_ns is not None and entry[0] > until_ns:
                    self._place(entry[0], entry[1], entry[2])
                    self._npending += 1
                    if prof is not None:
                        prof.note_push(self._npending, 0)
                    break
                if entry[2].state:
                    self._cancelled -= 1
                    if prof is not None:
                        prof.cancelled_skips += 1
                    continue
                hook.fire(self, entry)
            if until_ns is not None and self._now < until_ns:
                self._now = until_ns
        finally:
            hook.end(self)

    def step(self) -> bool:
        """Execute a single event.  Returns False when no events remain."""
        while True:
            entry = self._pop_entry()
            if entry is None:
                return False
            if entry[2].state:
                self._cancelled -= 1
                continue
            self._fire(entry)
            return True

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the wheel is drained."""
        while True:
            entry = self._pop_entry()
            if entry is None:
                return None
            if entry[2].state:  # drop cancelled entries lazily, like run()
                self._cancelled -= 1
                continue
            self._place(entry[0], entry[1], entry[2])
            self._npending += 1
            return entry[0]

    @property
    def pending(self) -> int:
        """Number of events still on the wheel (including cancelled ones).

        Prefer :attr:`live_pending` when deciding whether real work remains;
        this raw count over-reports whenever cancelled timers linger.
        """
        return self._npending

    @property
    def live_pending(self) -> int:
        """Number of not-yet-cancelled events still on the wheel."""
        return self._npending - self._cancelled
