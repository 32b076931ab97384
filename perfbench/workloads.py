"""The benchmark's workloads: simulator speed, simulated result, tooling cost.

``flows64_rss`` runs simulation cells back to back in a closed loop in
this process (the next cell starts when the previous one returns): 64
concurrent TCP flows with 4 KB messages under vanilla RSS on the
15-core multi-flow layout, i.e. a static steering table,
run-to-completion on one kernel core per flow, and a 64-way per-flow
GRO/TCP working set.  MFLOW is idle here.

``sweep_diff`` runs the 8-cell fig7 batch-size sweep (MFLOW, TCP, 64 KB;
its batch-256 cell is the paper's headline elephant-flow case) twice,
with global seeds 2s and 2s+1 (so two workload seeds share no sweep),
through ``RunEngine`` with the process executor,
then ``repro diff`` between the two sweep directories.  It is the only
workload that exercises MFLOW's split and merge, the runner and the
``obs.diff`` tooling.

A *pass* is the workload's fixed work for one seed: ``CELLS_PER_PASS``
cells (each with its own seed derived from the workload seed) for
``flows64_rss``, both sweeps plus the diff for ``sweep_diff``.  A
run repeats the work until ``seconds`` have been measured (at least one
whole pass) and reports medians.  ``flows64_rss`` reports its host times
in reference seconds: scaled by how fast the host ran a fixed calibration
kernel between its cells (``HostSpeed``).  The simulated results
(``sim_gbps``, ``sim_p99_us``) come from the pass's cells, so they repeat
exactly for a seed.

Every cell is checked: it must not raise, must conserve packets within
an in-flight slack that fits the cell (see ``conserved``), and
its simulated measurements (host-time fields excluded) must hash to the
stored reference digest for the reference seed.  For any other seed,
repeats of a cell must agree, a traced repeat must agree with the
untraced cell, and the first sweep's records must equal an in-process
``--jobs 1`` sweep of the same seed.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import heapq
import json
import math
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.conservation import check_conservation
from repro.experiments import fig7_batch_size as fig7
from repro.experiments.base import QUICK_WARMUP_NS
from repro.netstack.costs import CostModel
from repro.netstack.packet import MAX_SEGMENT_PAYLOAD
from repro.obs.diff import diff_paths
from repro.runner import RunEngine, RunRecord, scenario_result_to_dict
from repro.runner.executors import ProcessExecutor
from repro.workloads.multiflow import build_multiflow_scenario
from repro.workloads.scenario import Scenario

from perfbench.tracer import Tracer, apportion, calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: the seed whose simulated outputs are stored in ``reference.json``
REFERENCE_SEED = 0
#: distinct cells (seeds) in one pass of a simulation workload
CELLS_PER_PASS = 4
#: cold-interpreter set-up samples taken before each pass, so that a
#: run's samples spread over the run (one extra, first, warms the .pyc cache)
SETUP_PER_PASS = 3
#: calibration-kernel samples before each simulation cell
KERNEL_SAMPLES = 3
#: sweep workers: at most two, and never more than the host's CPUs
SWEEP_JOBS = max(1, min(2, os.cpu_count() or 1))

#: ``repro diff`` settings: with tolerance 0 every series pair is
#: bootstrap-tested, so the diff's work does not depend on how far the two
#: seeds' results happen to drift apart (at the default 2% only the pairs
#: that moved more are tested); the 200-sample cap keeps a pass short
#: enough that a run holds two of them
DIFF_TOLERANCE = 0.0
DIFF_SAMPLE_CAP = 200

#: datapath stages of both workloads (per-stage self time)
STAGES = (
    "mflow_split", "skb_alloc", "gro", "ip_outer", "udp_outer", "vxlan", "bridge",
    "veth_xmit", "veth_rx", "ip_inner", "mflow_merge", "tcp_rcv", "tcp_deliver",
)

#: measurement keys that are host time rather than simulated output
HOST_TIME_KEYS = ("selfprof",)

#: ``TcpSender``'s default send window, in bytes (1024 MSS)
TCP_WINDOW_BYTES = 1024 * MAX_SEGMENT_PAYLOAD
#: in-flight allowance for what the NAPI poll has taken off the NIC rings
#: but the stack has not yet delivered, as a share of ``nic_rx_packets``.
#: On the 64-flow cell it is 7.6-8.7% (six seeds): the kernel cores are
#: overloaded, so polled packets queue as work on them.
POST_RING_SHARE = 0.12


# ----------------------------------------------------------------- helpers
def cell_seeds(workload: str, seed: int, n: int = CELLS_PER_PASS) -> List[int]:
    """The scenario seeds of one pass, derived from the workload seed."""
    return [
        int.from_bytes(hashlib.sha256(f"{workload}/{seed}/{i}".encode()).digest()[:4], "big")
        for i in range(n)
    ]


def digest(obj: Any) -> str:
    """SHA-256 of a JSON-able payload in canonical form."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def measurement_digest(measurements: Dict[str, Any]) -> str:
    return digest({k: v for k, v in measurements.items() if k not in HOST_TIME_KEYS})


def conserved(measurements: Dict[str, Any], slack: int) -> bool:
    """No watchdog violation, and every packet that reached the NIC was
    delivered, dropped at a counted place, or is one of at most ``slack``
    packets still in flight.  (``ok()`` reconciles NIC arrivals only, so
    the wire's sent count, which run records do not carry, is not needed.)"""
    if measurements.get("conservation_violations", 0):
        return False
    return check_conservation(measurements["counters"], 0, "tcp",
                              in_flight_estimate=slack).ok()


def tcp_window_packets(flows: int, message_size: int) -> int:
    """The most wire packets lossless, window-limited TCP senders can have
    past the NIC but not yet delivered.  Such packets are unacknowledged;
    each flow keeps at most ``TCP_WINDOW_BYTES`` unacknowledged, and that
    many bytes of the stream span at most ``window // message + 2``
    messages of ``ceil(message / MSS)`` packets each."""
    per_message = -(-message_size // MAX_SEGMENT_PAYLOAD)
    return flows * (TCP_WINDOW_BYTES // message_size + 2) * per_message


#: the fig7 cells' slack: one 64 KB TCP flow's window (1104 packets, against
#: about 9400 NIC packets per cell; the batch-1 cell, window-limited, holds
#: about 980 at its end)
SWEEP_SLACK = tcp_window_packets(1, 65536)


def sweep_seeds(seed: int) -> Tuple[int, int]:
    """Global seeds of ``sweep_diff``'s two sweeps for a workload seed."""
    return 2 * seed, 2 * seed + 1


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with at least ten
    samples beyond it.  With eleven samples or fewer that is the lowest
    sample, the one with the most beyond it: the rule stays continuous as
    the count of samples a run fits changes, where taking the maximum
    below eleven would jump from the lowest sample to the highest."""
    xs = sorted(values)
    n = len(xs)
    k = max(n - 11, 0)
    return xs[k], 100.0 * (k + 1) / n, n


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or, with ``children``, the
    larger of it and its largest waited-for child), in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure_setup(code: str, samples: int = SETUP_PER_PASS) -> List[float]:
    """Seconds from a cold interpreter through ``code`` (which imports
    repro and builds the workload's first scenario or sweep), ``samples``
    times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class _Slot:
    __slots__ = ("key", "val")

    def __init__(self, key: int) -> None:
        self.key = key
        self.val = 0

    def bump(self, d: int) -> int:
        self.val += d
        return self.val


def calibration_kernel(n: int = 40_000) -> int:
    """Fixed pure-Python work of the kind the simulator's event loop does
    (dict lookups, method calls on slotted objects, heap pushes and pops);
    it does not touch ``repro``, so it costs the same on every commit."""
    heap: List[Tuple[int, int]] = []
    table: Dict[int, _Slot] = {}
    acc = 0
    for i in range(n):
        slot = table.get(i & 255)
        if slot is None:
            slot = table[i & 255] = _Slot(i & 255)
        acc += slot.bump(i % 7)
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 64:
            acc ^= heapq.heappop(heap)[1]
    return acc


#: the calibration kernel's time on the 2-vCPU reference host (Intel Xeon,
#: Python 3.11) while that host runs at full speed
REFERENCE_KERNEL_S = 0.03
#: metrics in host seconds, and in per host second
HOST_SECONDS = ("setup_s", "wall_s", "cell_p50_s", "cell_tail_s")
HOST_RATES = ("pkts_per_s",)


class HostSpeed:
    """How fast the host runs during one run, from calibration-kernel
    samples spread over the run.

    The shared host's speed drifts by tens of percent over minutes (the
    calibration kernel took 0.027-0.070 s within a minute), and every host
    time of a run drifts with it.  Scaling a run's host times by
    ``REFERENCE_KERNEL_S`` / (the run's kernel time) expresses them in
    reference seconds, which cancels most of that drift; a change to the
    program still shows in full, because the kernel does not run it.

    Only in-process cells are scaled: the kernel runs in this process,
    right before each cell.  ``sweep_diff``'s cells run in forked workers
    on both CPUs, which samples taken in this process between sweeps do
    not track (scaling by them gave no steady gain in run-to-run spread
    over three sets of runs), so its host times stay raw.

    Each ``sample`` times the kernel a few times back to back and keeps
    the median, which drops a one-off stall.  The run's kernel time is the
    mean of those points, not their median: at any moment the host is
    either fast or slowed, and a cell's time follows the share of slowed
    time, which the mean tracks.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.points: List[float] = []

    def sample(self, n: int = KERNEL_SAMPLES) -> None:
        # with the collector off, the kernel's cost does not depend on how
        # many objects the program left alive (its own objects are freed
        # by reference counting)
        enabled = gc.isenabled()
        gc.disable()
        times = []
        try:
            for _ in range(n):
                t0 = time.perf_counter()
                calibration_kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.samples += times
        self.points.append(statistics.median(times))

    @property
    def factor(self) -> float:
        """Reference seconds per host second of this run."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.points)

    def scale(self, raw: Dict[str, float]) -> Dict[str, float]:
        """``raw`` metrics with host seconds and rates in reference terms."""
        f = self.factor
        out = dict(raw)
        for key in HOST_SECONDS:
            out[key] = raw[key] * f
        for key in HOST_RATES:
            out[key] = raw[key] / f
        return out


def load_reference() -> Dict[str, Any]:
    if REFERENCE_PATH.exists():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


def expected_digests(reference: Optional[Dict[str, Any]], seed: int, workload: str) -> Any:
    """The stored digests of ``workload`` when ``seed`` is the reference seed."""
    if reference is None or reference.get("seed") != seed:
        return None
    return reference.get(workload)


def fsum_mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


# ------------------------------------------------------------------ report
@dataclass
class Report:
    """What one run of one workload measured."""

    workload: str
    seed: int
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: printed beside the metrics and written to the results JSON
    notes: Dict[str, Any] = field(default_factory=dict)
    #: simulated-output digests of the pass (what ``reference.json`` stores)
    digests: Any = None
    failures: List[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


@dataclass
class Cell:
    """One simulation cell: host time plus simulated output."""

    seed: int
    wall_s: float
    measurements: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    digest: str = ""
    conserved: bool = False
    #: in-flight packets the conservation check allowed
    slack: int = 0
    #: receiver ``nic_rx_packets`` over the whole cell, warm-up included
    pkts: int = 0


def rx_packets(measurements: Dict[str, Any]) -> int:
    return measurements["counters"].get("nic_rx_packets", 0)


# ------------------------------------------------------- simulation cells
@dataclass(frozen=True)
class SimWorkload:
    name: str
    build: Callable[[int, Optional[CostModel]], Scenario]
    warmup_ns: float
    measure_ns: float
    #: code a cold interpreter runs for ``setup_s`` ({seed} is filled in)
    setup_code: str

    def run_cell(self, seed: int, costs: Optional[CostModel] = None) -> Cell:
        t0 = time.perf_counter()
        try:
            sc = self.build(seed, costs)
            res = sc.run(warmup_ns=self.warmup_ns, measure_ns=self.measure_ns)
        except Exception:  # a raising cell is counted as failed, not fatal
            return Cell(seed, time.perf_counter() - t0, error=traceback.format_exc(limit=8))
        wall = time.perf_counter() - t0
        m = scenario_result_to_dict(res)
        # in flight at the end: what sits in the NIC rings (counted
        # exactly), plus a share for what the stack has polled from them
        slack = (sum(len(q.ring) for q in sc.nic._queues)
                 + math.ceil(POST_RING_SHARE * rx_packets(m)))
        return Cell(seed, wall, m, digest=measurement_digest(m),
                    conserved=conserved(m, slack), slack=slack, pkts=rx_packets(m))

    def _check(self, report: Report, cell: Cell, want: Optional[str], label: str) -> None:
        report.attempted += 1
        if cell.error is not None:
            report.fail(f"{label}: raised\n{cell.error}")
        elif not cell.conserved:
            report.fail(f"{label}: packet conservation violated")
        elif want is not None and cell.digest != want:
            report.fail(f"{label}: simulated output {cell.digest[:12]} != {want[:12]}")

    def run(
        self, seed: int, seconds: float, costs: Optional[CostModel] = None,
        reference: Optional[Dict[str, Any]] = None,
    ) -> Report:
        """Untraced run: end-to-end metrics."""
        report = Report(self.name, seed)
        seeds = cell_seeds(self.name, seed)
        setup_code = self.setup_code.format(seed=seeds[0])
        measure_setup(setup_code, 1)
        setup: List[float] = []
        speed = HostSpeed()

        # closed loop: the next cell starts when the previous one returns.
        # The measured time is the cells' own; set-up and calibration
        # samples run between them.  The last pass may be cut short (its
        # cells count, its pass time does not).
        pass_times: List[float] = []
        cells: List[Cell] = []
        measured = 0.0
        while not pass_times or measured < seconds:
            setup += measure_setup(setup_code)
            in_pass: List[Cell] = []
            for s in seeds:
                if pass_times and measured >= seconds:
                    break
                speed.sample()
                cell = self.run_cell(s, costs)
                measured += cell.wall_s
                if len(cells) >= len(seeds):
                    # only the first pass's outputs are read again; keeping
                    # every cell's would grow peak RSS with the cell count
                    cell.measurements = None
                cells.append(cell)
                in_pass.append(cell)
            else:
                pass_times.append(math.fsum(c.wall_s for c in in_pass))
        speed.sample()
        rss = peak_rss_mb()

        first = cells[: len(seeds)]
        expected = expected_digests(reference, seed, self.name)
        want = expected or [c.digest for c in first]
        for j, cell in enumerate(cells):
            i = j % len(seeds)
            self._check(report, cell, want[i],
                        f"cell {j} (pass {j // len(seeds)}, seed {cell.seed})")
        if expected is None:
            # no stored reference: a traced repeat must reproduce cell 0
            tracer = Tracer()
            tracer.install()
            try:
                again = self.run_cell(seeds[0], costs)
            finally:
                tracer.uninstall()
            self._check(report, again, want[0], f"traced repeat of cell 0 (seed {seeds[0]})")

        ran = [c for c in cells if c.error is None]
        walls = [c.wall_s for c in cells]
        tail_s, tail_pct, n = tail(walls)
        ok_first = [c for c in first if c.measurements is not None]
        raw = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(pass_times),
            "pkts_per_s": statistics.median(c.pkts / c.wall_s for c in ran) if ran else 0.0,
            "cell_p50_s": statistics.median(walls),
            "cell_tail_s": tail_s,
            "peak_rss_mb": rss,
            "sim_gbps": fsum_mean([c.measurements["throughput_gbps"] for c in ok_first]),
            "sim_p99_us": fsum_mean([c.measurements["latency"]["p99_us"] for c in ok_first]),
        }
        report.metrics = speed.scale(raw)
        report.notes = {
            "fail_frac": report.failed / report.attempted,
            "cell_tail_pct": round(tail_pct, 1),
            "cells": n,
            "passes": len(pass_times),
            "cell_walls_s": walls,
            "host_speed_factor": speed.factor,
            "raw_metrics": raw,
            "setup_samples_s": setup,
            "kernel_samples_s": speed.samples,
        }
        report.digests = [c.digest for c in first]
        return report

    def run_traced(
        self, seed: int, seconds: float, costs: Optional[CostModel] = None,
        reference: Optional[Dict[str, Any]] = None,
    ) -> Report:
        """Traced run: per-layer metrics.  Each cell runs untraced and
        then traced; the two simulated outputs must agree."""
        report = Report(self.name, seed)
        seeds = cell_seeds(self.name, seed)
        expected = expected_digests(reference, seed, self.name)
        probe = calibrate()
        tracer = Tracer()
        pairs: List[Tuple[Cell, Cell]] = []
        start = time.perf_counter()
        while not pairs or time.perf_counter() - start < seconds:
            for i, s in enumerate(seeds):
                plain = self.run_cell(s, costs)
                tracer.install()
                try:
                    traced = self.run_cell(s, costs)
                finally:
                    tracer.uninstall()
                pass_no = len(pairs) // len(seeds)
                self._check(report, plain, expected[i] if expected else None,
                            f"pass {pass_no} cell {i} (seed {s})")
                self._check(report, traced, plain.digest,
                            f"pass {pass_no} traced cell {i} (seed {s})")
                pairs.append((plain, traced))

        profiler = cProfile.Profile(builtins=False)
        profiler.enable()
        try:
            profiled = self.run_cell(seeds[0], costs)
        finally:
            profiler.disable()
        self._check(report, profiled, pairs[0][0].digest, "profiled cell 0")
        py_calls = pstats.Stats(profiler).total_calls

        traced_cells = [t for _, t in pairs if t.measurements is not None]
        first_pass = traced_cells[: len(seeds)]
        plain_ns = math.fsum(p.wall_s for p, _ in pairs) * 1e9
        extra_ns = math.fsum(t.wall_s for _, t in pairs) * 1e9 - plain_ns
        overhead = apportion(probe, extra_ns, sum(tracer.calls.values()),
                             sum(tracer.child_calls.values()))
        report.metrics = layer_metrics(tracer, traced_cells, first_pass, overhead)
        report.metrics["py_calls_per_pkt"] = py_calls / profiled.pkts if profiled.pkts else 0.0
        report.metrics["trace_overhead_frac"] = (
            statistics.median(t.wall_s / p.wall_s for p, t in pairs) - 1.0
        )
        report.notes = {
            "fail_frac": report.failed / report.attempted,
            "traced_cells": len(pairs),
            "py_calls_cell0": py_calls,
            "tracer_overhead_ns": overhead,
        }
        report.digests = [p.digest for p, _ in pairs[: len(seeds)]]
        write_spans(tracer, report)
        return report


def layer_metrics(
    tracer: Tracer, cells: Sequence[Cell], first_pass: Sequence[Cell],
    overhead: Tuple[float, float],
) -> Dict[str, float]:
    """Per-layer metrics from the tracer totals over ``cells``; the
    simulated layer gauges come from one pass (``first_pass``).  Self
    times have the tracer's calibrated ``overhead`` taken out."""
    pkts = sum(c.pkts for c in cells) or 1

    def self_ns(layer: str) -> float:
        return tracer.layer_self_ns(layer, overhead) / pkts

    ms = [c.measurements for c in cells]
    fs = [c.measurements for c in first_pass]

    def counters(key: str, src: Sequence[Dict[str, Any]]) -> int:
        return sum(m["counters"].get(key, 0) for m in src)

    dispatches = tracer.calls_of("pipeline:Pipeline._dispatch")
    polls = tracer.calls_of("nic:_RxQueue._poll")
    split = counters("mflow_split_packets", fs)
    out = {
        "sim.events_per_pkt": sum(m["events_executed"] for m in ms) / pkts,
        "sim.self_ns_per_pkt": self_ns("sim"),
        "cpu.items_per_pkt": tracer.calls_of("cpu:Core._complete") / pkts,
        "cpu.front_items_per_pkt":
            tracer.calls_of("cpu:Core.submit_front", "cpu:Core.submit_front_call") / pkts,
        "cpu.self_ns_per_pkt": self_ns("cpu"),
        "cpu.busy_max": max((max(m["cpu_utilization"]) for m in fs), default=0.0),
        "cpu.queue_max": float(tracer.gauges.get("cpu.queue_max", 0)),
        "pipeline.hops_per_pkt": dispatches / pkts,
        "pipeline.handoff_frac": counters("handoffs", ms) / dispatches if dispatches else 0.0,
        "pipeline.self_ns_per_pkt": self_ns("pipeline"),
        "pipeline.backlog_drops": float(counters("backlog_drops", fs)),
    }
    for stage in STAGES:
        out[f"stage.{stage}.self_ns_per_pkt"] = (
            tracer.corrected_self_ns(f"stage.{stage}", overhead) / pkts)
    out.update({
        "stages.self_ns_per_pkt": self_ns("stages"),
        "steering.calls_per_pkt": tracer.calls_in_layer("steering") / pkts,
        "steering.self_ns_per_pkt": self_ns("steering"),
        "mflow.ooo_frac": counters("mflow_ooo_packets", fs) / split if split else 0.0,
        "nic.pkts_per_poll": pkts / polls if polls else 0.0,
        "nic.self_ns_per_pkt": self_ns("nic"),
        "hist.records_per_pkt": tracer.calls_in_layer("hist") / pkts,
        "hist.self_ns_per_pkt": self_ns("hist"),
        "telemetry.calls_per_pkt": tracer.calls_in_layer("telemetry") / pkts,
        "telemetry.self_ns_per_pkt": self_ns("telemetry"),
        "workloads.self_ns_per_pkt": self_ns("workloads"),
        # tooling layers; sweep_diff overwrites them
        "runner.overhead_s": 0.0,
        "runner.write_s": 0.0,
        "diff.load_s": 0.0,
        "diff.compute_s": 0.0,
        "diff.rows": 0.0,
    })
    return out


def write_spans(tracer: Tracer, report: Report) -> None:
    """Write the kept raw spans as JSON lines beside the results."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{report.workload}-seed{report.seed}-spans.jsonl"
    with open(path, "w") as fh:
        for sid, name, t0, t1, parent in tracer.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start_ns": t0,
                                 "end_ns": t1, "parent": parent}) + "\n")
    report.notes["spans_file"] = str(path.relative_to(ROOT))


def _build_flows64(seed: int, costs: Optional[CostModel]) -> Scenario:
    return build_multiflow_scenario("vanilla", 64, 4096, costs=costs, seed=seed)


FLOWS64 = SimWorkload(
    name="flows64_rss",
    build=_build_flows64,
    # the experiments' quick warm-up, then 1 ms instead of their 3 ms: a
    # quick-window 64-flow cell takes about 4 s of host time, this one
    # about 2.5 s, which leaves 10-16 cells per 40-second run
    warmup_ns=QUICK_WARMUP_NS,
    measure_ns=1_000_000.0,
    setup_code=(
        "from repro.workloads.multiflow import build_multiflow_scenario\n"
        "build_multiflow_scenario('vanilla', 64, 4096, seed={seed})"
    ),
)


# ------------------------------------------------------------- sweep + diff
SWEEP_SETUP_CODE = (
    "from repro.experiments import fig7_batch_size as fig7\n"
    "from repro.runner import RunEngine\n"
    "from repro.runner.executors import ProcessExecutor\n"
    "fig7.specs(quick=True)\n"
    "RunEngine(jobs={jobs}, global_seed={seed}, executor=ProcessExecutor({jobs}))"
)


@dataclass
class SweepPass:
    """Both fig7 sweeps and the diff between them."""

    sweep_s: float
    diff_s: float
    #: each sweep's records, and its host makespan
    records: List[List[RunRecord]]
    makespans: List[float]
    #: host time of each cell that ran, and their NIC packets in total
    walls: List[float] = field(default_factory=list)
    pkts: int = 0
    diff_rows: int = 0
    diff_digest: str = ""
    diff_error: Optional[str] = None


def run_sweep(
    global_seed: int, jobs: int, results_dir: Optional[Path], costs: Optional[CostModel],
) -> Tuple[float, List[RunRecord]]:
    """One fig7 sweep through ``RunEngine``; returns (makespan, records)."""
    executor = ProcessExecutor(jobs) if jobs > 1 else None
    engine = RunEngine(jobs=jobs, global_seed=global_seed, results_dir=results_dir,
                       use_cache=False, strict=False, executor=executor)
    t0 = time.perf_counter()
    records = engine.run(fig7.EXPERIMENT, fig7.specs(quick=True, costs=costs))
    return time.perf_counter() - t0, records


def sweep_pass(seed: int, work: Path, costs: Optional[CostModel]) -> SweepPass:
    """Sweep both global seeds of workload seed ``seed``, then diff the two."""
    shutil.rmtree(work, ignore_errors=True)
    makespans, records = [], []
    for side, global_seed in zip("ab", sweep_seeds(seed)):
        span, recs = run_sweep(global_seed, SWEEP_JOBS, work / side, costs)
        makespans.append(span)
        records.append(recs)
    ran = [r for side in records for r in side if r.ok]
    out = SweepPass(sweep_s=sum(makespans), diff_s=0.0, records=records, makespans=makespans,
                    walls=[r.wall_time_s for r in ran],
                    pkts=sum(rx_packets(r.measurements) for r in ran))
    t0 = time.perf_counter()
    try:
        diff = diff_paths(work / "a" / fig7.EXPERIMENT, work / "b" / fig7.EXPERIMENT,
                          tolerance=DIFF_TOLERANCE, sample_cap=DIFF_SAMPLE_CAP)
    except Exception:  # counted as a failed diff, not fatal
        out.diff_error = traceback.format_exc(limit=8)
    else:
        out.diff_rows = len(diff.rows)
        payload = diff.to_json_dict()
        payload.pop("label_a")   # the labels are the (per-run) sweep paths
        payload.pop("label_b")
        out.diff_digest = digest(payload)
    out.diff_s = time.perf_counter() - t0
    return out


def record_digests(records: Sequence[RunRecord]) -> List[str]:
    return [measurement_digest(r.measurements) if r.ok else "" for r in records]


def busiest_slot_s(records: Sequence[RunRecord], jobs: int) -> float:
    """Busiest worker slot's summed cell time, placing cells in spec
    order on the earliest-free slot as the engine's launch loop does."""
    slots = [0.0] * jobs
    for rec in records:
        i = slots.index(min(slots))
        slots[i] += rec.wall_time_s
    return max(slots)


class SweepDiffWorkload:
    name = "sweep_diff"

    def _check_pass(
        self, report: Report, sp: SweepPass, want: Optional[Dict[str, Any]], label: str,
    ) -> None:
        for side, recs in zip("ab", sp.records):
            wanted = want[side] if want else [None] * len(recs)
            for rec, got, exp in zip(recs, record_digests(recs), wanted):
                report.attempted += 1
                what = f"{label} sweep {side} {'/'.join(rec.tags)}"
                if not rec.ok:
                    report.fail(f"{what}: {rec.error}")
                elif not conserved(rec.measurements, SWEEP_SLACK):
                    report.fail(f"{what}: packet conservation violated")
                elif exp is not None and got != exp:
                    report.fail(f"{what}: simulated output {got[:12]} != {exp[:12]}")
        report.attempted += 1
        if sp.diff_error is not None:
            report.fail(f"{label} diff raised\n{sp.diff_error}")
        elif want and sp.diff_digest != want["diff"]:
            report.fail(f"{label} diff output {sp.diff_digest[:12]} != {want['diff'][:12]}")

    @staticmethod
    def _digests(sp: SweepPass) -> Dict[str, Any]:
        return {"a": record_digests(sp.records[0]), "b": record_digests(sp.records[1]),
                "diff": sp.diff_digest}

    def run(
        self, seed: int, seconds: float, costs: Optional[CostModel] = None,
        reference: Optional[Dict[str, Any]] = None,
    ) -> Report:
        report = Report(self.name, seed)
        setup_code = SWEEP_SETUP_CODE.format(seed=sweep_seeds(seed)[0], jobs=SWEEP_JOBS)
        measure_setup(setup_code, 1)
        setup: List[float] = []
        work = RESULTS / f"work-{os.getpid()}"
        try:
            passes: List[SweepPass] = []
            want = expected_digests(reference, seed, self.name)
            # set-up samples run between the passes, outside the measured time
            while not passes or math.fsum(sp.sweep_s + sp.diff_s for sp in passes) < seconds:
                setup += measure_setup(setup_code)
                sp = sweep_pass(seed, work, costs)
                self._check_pass(report, sp, want or (self._digests(passes[0]) if passes else None),
                                 f"pass {len(passes)}")
                if passes:
                    # only the first pass's records are read again; keeping
                    # every pass's would grow peak RSS with the pass count
                    sp.records = []
                passes.append(sp)
            rss = peak_rss_mb(children=True)
            if want is None:
                # no stored reference: the first sweep must equal an
                # in-process --jobs 1 sweep of the same seed
                _, serial = run_sweep(sweep_seeds(seed)[0], 1, None, costs)
                for rec, got, exp in zip(serial, record_digests(serial),
                                         record_digests(passes[0].records[0])):
                    report.attempted += 1
                    if got != exp:
                        report.fail(f"--jobs 1 sweep {'/'.join(rec.tags)}: "
                                    f"{got[:12]} != {exp[:12]}")
        finally:
            shutil.rmtree(work, ignore_errors=True)

        first = [r for side in passes[0].records for r in side if r.ok]
        walls = [w for sp in passes for w in sp.walls]
        tail_s, tail_pct, n = (tail(walls) if walls else (0.0, 0.0, 0))
        report.metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(sp.sweep_s + sp.diff_s for sp in passes),
            "pkts_per_s": statistics.median(sp.pkts / sp.sweep_s for sp in passes),
            "cell_p50_s": statistics.median(walls) if walls else 0.0,
            "cell_tail_s": tail_s,
            "peak_rss_mb": rss,
            "sim_gbps": fsum_mean([r.measurements["throughput_gbps"] for r in first]),
            "sim_p99_us": fsum_mean([r.measurements["latency"]["p99_us"] for r in first]),
        }
        report.notes = {
            "fail_frac": report.failed / report.attempted,
            "sweep_s": statistics.median(sp.sweep_s for sp in passes),
            "diff_s": statistics.median(sp.diff_s for sp in passes),
            "cell_tail_pct": round(tail_pct, 1),
            "cells": n,
            "passes": len(passes),
            "jobs": SWEEP_JOBS,
            "cell_walls_s": walls,
            "setup_samples_s": setup,
        }
        report.digests = self._digests(passes[0])
        return report

    def run_traced(
        self, seed: int, seconds: float, costs: Optional[CostModel] = None,
        reference: Optional[Dict[str, Any]] = None,
    ) -> Report:
        """One untraced pass, then one traced pass whose forked workers
        dump their span totals for this process to merge."""
        report = Report(self.name, seed)
        work = RESULTS / f"work-{os.getpid()}"
        dumps = RESULTS / f"spans-{os.getpid()}"
        probe = calibrate()
        tracer = Tracer()
        try:
            plain = sweep_pass(seed, work, costs)
            shutil.rmtree(dumps, ignore_errors=True)
            dumps.mkdir(parents=True)
            tracer.install()
            tracer.install_worker_dump(dumps)
            try:
                traced = sweep_pass(seed, work, costs)
            finally:
                tracer.uninstall()
            workers = tracer.merge_dumps(sorted(dumps.glob("worker-*.json")))
        finally:
            shutil.rmtree(work, ignore_errors=True)
            shutil.rmtree(dumps, ignore_errors=True)

        want = expected_digests(reference, seed, self.name)
        self._check_pass(report, plain, want, "untraced")
        self._check_pass(report, traced, self._digests(plain), "traced")
        traced_cells = [
            Cell(r.seed, r.wall_time_s, r.measurements, pkts=rx_packets(r.measurements))
            for side in traced.records
            for r in side if r.ok
        ]
        extra_ns = 1e9 * (
            math.fsum(r.wall_time_s for side in traced.records for r in side)
            - math.fsum(r.wall_time_s for side in plain.records for r in side)
        )
        overhead = apportion(probe, extra_ns, sum(tracer.calls.values()),
                             sum(tracer.child_calls.values()))
        report.metrics = layer_metrics(tracer, traced_cells, traced_cells, overhead)
        report.metrics.update({
            # cells run in forked workers, outside any profiler
            "py_calls_per_pkt": 0.0,
            "trace_overhead_frac":
                (traced.sweep_s + traced.diff_s) / (plain.sweep_s + plain.diff_s) - 1.0,
            "runner.overhead_s": math.fsum(
                span - busiest_slot_s(recs, SWEEP_JOBS)
                for span, recs in zip(plain.makespans, plain.records)
            ),
            "runner.write_s": tracer.layer_self_ns("runner", overhead) / 1e9,
            "diff.load_s": tracer.corrected_self_ns("diff:load_hist_source", overhead) / 1e9,
            "diff.compute_s": tracer.corrected_self_ns("diff:diff_sources", overhead) / 1e9,
            "diff.rows": float(traced.diff_rows),
        })
        report.notes = {
            "fail_frac": report.failed / report.attempted,
            "worker_dumps": workers,
            "tracer_overhead_ns": overhead,
            "untraced_sweep_s": plain.sweep_s,
            "untraced_diff_s": plain.diff_s,
        }
        report.digests = self._digests(plain)
        write_spans(tracer, report)
        return report


WORKLOADS = {w.name: w for w in (FLOWS64, SweepDiffWorkload())}
