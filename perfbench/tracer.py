"""Class-level span tracer for the benchmark's traced runs.

The tracer wraps each layer's entry points on their *classes* (or, for
plain functions, on their modules) and records, per span name, a call
count and the self time: the span's duration minus the time covered by
the spans it called.  The first ``span_cap`` spans of a run are also
kept as ``(id, name, start_ns, end_ns, parent_id)`` tuples.

Wrapping happens on classes, never on instances: ``Pipeline.inject_batch``
and ``Pipeline._run_stage`` treat an *instance* attribute ``inject`` as a
path-tracer interposer and take a different routing path, which would
change what is measured.  Class attributes are looked up at call time by
the engine (``Core._complete``), the pipeline (``_run_stage``,
``_dispatch``) and the steering call sites (``policy.core_for``), so a
class-level wrapper sees every call.  Some bound methods are captured
when a scenario is built (the NAPI poll handler, the ACK route), so the
tracer must be installed before the scenario is built.

Nothing under ``src/`` is modified: wrappers are installed in this
process only and removed by :meth:`Tracer.uninstall`.  Forked sweep
workers inherit the wrappers; :meth:`Tracer.install_worker_dump` makes
each worker write its totals to a file the parent merges.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter_ns

#: (layer, module, class, methods): the entry points wrapped per layer.
#: Layer names follow the ``src/repro`` modules they live in.
METHOD_ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Simulator", ("run", "_sched", "_refill", "call_at")),
    ("cpu", "repro.cpu.core", "Core", (
        "_complete", "submit", "submit_call", "submit_front", "submit_front_call",
    )),
    ("pipeline", "repro.netstack.pipeline", "Pipeline", (
        "inject", "inject_batch", "_dispatch", "_run_stage",
    )),
    ("nic", "repro.netstack.nic", "_RxQueue", ("receive", "_poll", "_emit")),
    ("nic", "repro.netstack.nic", "Nic", ("receive",)),
    ("nic", "repro.netstack.nic", "Wire", ("send",)),
    ("hist", "repro.obs.hist", "StageHistograms", ("record_stage", "record_core")),
    ("telemetry", "repro.metrics.telemetry", "Telemetry", ("count", "observe")),
    ("workloads", "repro.netstack.protocol.tcp", "TcpSender", (
        "start", "on_ack", "_segment", "_transmit", "_unblock",
    )),
    ("workloads", "repro.netstack.protocol.udp", "UdpSender", (
        "start", "_send_next", "_segment", "_emit", "_emit_last",
    )),
    ("workloads", "repro.workloads.scenario", "Scenario", ("_route_ack",)),
)

#: (layer, module, function): module-level functions looked up by global
#: name at call time (the runner's atomic writes, the diff phases)
FUNCTION_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("runner", "repro.runner.engine", "atomic_write_json"),
    ("runner", "repro.runner.engine", "append_jsonl"),
    ("diff", "repro.obs.diff", "load_hist_source"),
    ("diff", "repro.obs.diff", "diff_sources"),
)

#: modules defining datapath stages and steering policies; imported so
#: every subclass exists before the class walk
STAGE_MODULES = (
    "repro.netstack.stages",
    "repro.netstack.protocol.tcp",
    "repro.netstack.protocol.udp",
    "repro.overlay.devices",
    "repro.overlay.balancer",
    "repro.core.splitting",
    "repro.core.reassembly",
)
POLICY_MODULES = (
    "repro.steering.vanilla",
    "repro.steering.rss",
    "repro.steering.rps",
    "repro.steering.falcon",
    "repro.core.mflow",
)

#: stage methods charged to the stage's own span (``stage.<name>``):
#: the per-hop logic plus the GRO flush and merge progress timers
STAGE_METHODS = ("process", "_flush_check", "_progress_check")


def layer_of(span: str) -> str:
    """``stage.<name>`` spans form the ``stages`` layer; others are
    named ``<layer>:<Class.method>``."""
    if span.startswith("stage."):
        return "stages"
    return span.split(":", 1)[0]


def _subclasses(cls: type) -> List[type]:
    """``cls`` and all its subclasses, each once."""
    out: List[type] = []
    todo = [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


class Tracer:
    """Span totals per name, plus the first ``span_cap`` raw spans."""

    def __init__(self, span_cap: int = 20_000) -> None:
        self.span_cap = span_cap
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        #: calls made by spans of each name to wrapped children
        self.child_calls: Dict[str, int] = {}
        #: largest value seen per simulated gauge (e.g. run-queue depth)
        self.gauges: Dict[str, float] = {}
        self.spans: List[Tuple[int, str, int, int, int]] = []
        self._stack: List[List[int]] = []
        self._next_id = 0
        self._installed: List[Tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- recording
    def reset(self) -> None:
        """Forget every total (the dicts are cleared in place: the
        installed wrappers hold references to them)."""
        self.calls.clear()
        self.self_ns.clear()
        self.child_calls.clear()
        self.gauges.clear()
        self.spans.clear()
        self._stack.clear()
        self._next_id = 0

    def _wrapper(
        self, fn: Callable, name: str = "", name_of: Optional[Callable[[tuple], str]] = None,
    ) -> Callable:
        """``fn`` wrapped to record a span named ``name``, or named by
        ``name_of(args)`` when the name depends on the instance."""
        calls, self_ns, stack, spans = self.calls, self.self_ns, self._stack, self.spans
        child_calls = self.child_calls
        tracer = self
        fixed = name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = fixed if name_of is None else name_of(args)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0, sid, 0]   # child ns, span id, child calls
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                self_ns[name] = self_ns.get(name, 0) + dur - frame[0]
                calls[name] = calls.get(name, 0) + 1
                if frame[2]:
                    child_calls[name] = child_calls.get(name, 0) + frame[2]
                if stack:
                    up = stack[-1]
                    up[0] += dur
                    up[2] += 1
                if sid < tracer.span_cap:
                    spans.append((sid, name, t0, t1, parent))

        return traced

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_fixed(self, owner: Any, attr: str, name: str) -> None:
        self._replace(owner, attr, self._wrapper(owner.__dict__[attr], name))

    # -------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every layer's entry points (idempotent per instance)."""
        if self._installed:
            return
        for layer, module, cls_name, methods in METHOD_ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            for meth in methods:
                self._wrap_fixed(cls, meth, f"{layer}:{cls_name}.{meth}")
        for layer, module, func in FUNCTION_ENTRY_POINTS:
            self._wrap_fixed(importlib.import_module(module), func, f"{layer}:{func}")
        for module in STAGE_MODULES + POLICY_MODULES:
            importlib.import_module(module)
        from repro.netstack.stages import Stage
        from repro.steering.base import SteeringPolicy

        names: Dict[str, str] = {}

        def stage_span(args: tuple) -> str:
            stage_name = args[0].name
            span = names.get(stage_name)
            if span is None:
                span = names[stage_name] = f"stage.{stage_name}"
            return span

        for cls in _subclasses(Stage):
            for meth in STAGE_METHODS:
                if meth in cls.__dict__:
                    self._replace(cls, meth, self._wrapper(cls.__dict__[meth], name_of=stage_span))
        for cls in _subclasses(SteeringPolicy):
            if "core_for" in cls.__dict__:
                self._wrap_fixed(cls, "core_for", f"steering:{cls.__name__}.core_for")
        self._install_gauges()

    def _install_gauges(self) -> None:
        """Probe each finished scenario for simulated gauges the result
        payload does not carry (the deepest core run queue)."""
        from repro.workloads.scenario import Scenario

        collect = Scenario.__dict__["_collect"]
        gauges = self.gauges

        @functools.wraps(collect)
        def probed(scenario, *args, **kwargs):
            depth = max(core.max_queue_depth for core in scenario.cpus)
            gauges["cpu.queue_max"] = max(gauges.get("cpu.queue_max", 0), depth)
            return collect(scenario, *args, **kwargs)

        self._replace(Scenario, "_collect", probed)

    def install_worker_dump(self, out_dir: Path) -> None:
        """Make each forked sweep worker write its totals to ``out_dir``.

        The process executor's worker calls ``execute_scoped`` by global
        name, so wrapping that module attribute runs in every worker,
        which starts from a copy of this tracer and so resets it first.
        """
        module = importlib.import_module("repro.runner.executors.process")
        run_cell = module.__dict__["execute_scoped"]
        tracer = self

        @functools.wraps(run_cell)
        def dumping(*args, **kwargs):
            tracer.reset()
            try:
                return run_cell(*args, **kwargs)
            finally:
                path = Path(out_dir) / f"worker-{os.getpid()}.json"
                path.write_text(json.dumps(tracer.totals()))

        self._replace(module, "execute_scoped", dumping)

    def uninstall(self) -> None:
        """Put every original attribute back, in reverse order."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- results
    def totals(self) -> Dict[str, Dict[str, float]]:
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "child_calls": dict(self.child_calls),
            "gauges": dict(self.gauges),
        }

    def merge(self, totals: Dict[str, Dict[str, float]]) -> None:
        """Add another process's :meth:`totals` into this tracer."""
        for key in ("calls", "self_ns", "child_calls"):
            mine = getattr(self, key)
            for name, n in totals[key].items():
                mine[name] = mine.get(name, 0) + n
        for name, v in totals["gauges"].items():
            self.gauges[name] = max(self.gauges.get(name, 0), v)

    def merge_dumps(self, paths: Iterable[Path]) -> int:
        n = 0
        for path in paths:
            self.merge(json.loads(Path(path).read_text()))
            n += 1
        return n

    def corrected_self_ns(self, name: str, overhead: Tuple[float, float]) -> float:
        """Self time of ``name`` less the tracer's own cost: ``inner`` ns
        per call inside the span, ``outer`` ns per wrapped child call
        charged to the caller (see :func:`calibrate`); never below 0."""
        inner, outer = overhead
        ns = (self.self_ns.get(name, 0) - inner * self.calls.get(name, 0)
              - outer * self.child_calls.get(name, 0))
        return max(0.0, ns)

    def layer_self_ns(self, layer: str, overhead: Tuple[float, float]) -> float:
        return math.fsum(self.corrected_self_ns(name, overhead)
                         for name in self.self_ns if layer_of(name) == layer)

    def calls_of(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def calls_in_layer(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items() if layer_of(name) == layer)


class _Probe:
    def noop(self) -> None:
        return None


def calibrate(calls: int = 20_000, reps: int = 5) -> Tuple[float, float]:
    """The tracer's own cost per span, as ``(inner, outer)`` ns.

    ``inner`` is what a wrapped no-op reports as its self time (the
    clock reads and the forwarded call); ``outer`` is what the wrapper
    adds around that, which lands in the caller's self time.  Medians of
    ``reps`` timings of ``calls`` calls each.  A no-op probe understates
    the cost inside a real run, so :func:`apportion` rescales the pair.
    """
    probe = _Probe()
    bare = _Probe.noop
    tracer = Tracer(span_cap=0)
    wrapped = tracer._wrapper(bare, "probe")
    inners, outers = [], []
    for _ in range(reps):
        t0 = _clock()
        for _ in range(calls):
            bare(probe)
        t1 = _clock()
        tracer.reset()
        for _ in range(calls):
            wrapped(probe)
        t2 = _clock()
        inner = tracer.self_ns["probe"] / calls
        inners.append(inner)
        outers.append((t2 - t1) / calls - inner - (t1 - t0) / calls)
    return statistics.median(inners), statistics.median(outers)


def apportion(
    probe: Tuple[float, float], extra_ns: float, spans: int, child_spans: int,
) -> Tuple[float, float]:
    """The tracer's ``(inner, outer)`` cost per span inside a real run.

    ``extra_ns`` is the measured host time the traced cells took beyond
    their untraced twins, over ``spans`` spans of which ``child_spans``
    had a traced caller.  The probe's ``inner`` cost (clock reads and
    the forwarded call, inside the span) is taken as measured; the rest
    of ``extra_ns`` is the wrapper's bookkeeping, charged to callers.
    """
    inner = min(probe[0], max(0.0, extra_ns) / spans) if spans else 0.0
    outer = max(0.0, extra_ns - inner * spans) / child_spans if child_spans else 0.0
    return inner, outer
