"""Statistical benchmark harness with persisted baselines.

``repro bench`` runs a curated scenario matrix (small/large flow counts
across the steering systems, plus faults-on and observability-on
variants) N repetitions each and summarizes wall time and simulated
events per second with bootstrap 95% confidence intervals
(:mod:`repro.perf.stats`).  The result is a schema-versioned
``BENCH_<git-sha>.json`` — the unit of the repo's performance
trajectory: every PR emits one, and ``repro bench --compare`` gates CI
by flagging scenarios whose confidence intervals have drifted past a
tolerance, so a silent simulator slowdown fails loudly instead of
compounding.

The simulated *measurements* of each scenario are deterministic in the
seed; repetitions therefore re-measure identical work, and the spread
the CIs capture is pure harness noise (allocator, GC, scheduler) — the
thing a perf gate must tolerate but a perf regression must exceed.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.perf.stats import SampleStats

#: bump when the BENCH payload layout changes incompatibly
BENCH_SCHEMA_VERSION = 1

#: default repetitions (full / --quick)
DEFAULT_REPS = 5
QUICK_REPS = 3

#: measurement windows in ns (full / --quick)
FULL_WINDOWS = {"warmup_ns": 1_000_000.0, "measure_ns": 4_000_000.0}
QUICK_WINDOWS = {"warmup_ns": 500_000.0, "measure_ns": 1_500_000.0}


@dataclass(frozen=True)
class BenchScenario:
    """One named cell of the bench matrix."""

    name: str
    kind: str                    # "sockperf" | "multiflow"
    params: tuple                # sorted (key, value) pairs — hashable & JSON-safe

    @classmethod
    def make(cls, name: str, kind: str, **params: Any) -> "BenchScenario":
        return cls(name=name, kind=kind, params=tuple(sorted(params.items())))

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def run_once(self, seed: int, warmup_ns: float, measure_ns: float):
        """Execute the scenario once; returns the ScenarioResult."""
        from repro.runner.factories import run_scenario_params

        return run_scenario_params(self.kind, self.params_dict(), seed, warmup_ns, measure_ns)


def default_matrix() -> List[BenchScenario]:
    """The curated matrix: steering systems at small and large flow
    counts, plus the faults-on and observability-on tax meters."""
    single = [
        BenchScenario.make(f"single_tcp64k_{system}", "sockperf",
                           system=system, proto="tcp", size=65536)
        for system in ("vanilla", "rss", "rps", "mflow")
    ]
    multi = [
        BenchScenario.make(f"multi_tcp4k_x8_{system}", "multiflow",
                           system=system, n_flows=8, size=4096)
        for system in ("vanilla", "mflow")
    ]
    variants = [
        BenchScenario.make("single_tcp64k_mflow_faults", "sockperf",
                           system="mflow", proto="tcp", size=65536, faults="loss5"),
        BenchScenario.make("single_tcp64k_mflow_obs", "sockperf",
                           system="mflow", proto="tcp", size=65536, obs=True),
        # histograms are on by default everywhere else in the matrix, so
        # this hist-off twin of single_tcp64k_mflow meters their tax
        BenchScenario.make("single_tcp64k_mflow_nohist", "sockperf",
                           system="mflow", proto="tcp", size=65536, hist=False),
    ]
    return single + multi + variants


# ------------------------------------------------------------------ execution
@dataclass
class ScenarioBench:
    """Repetition summary for one scenario."""

    scenario: BenchScenario
    wall_s: SampleStats
    events_per_sec: SampleStats
    events_executed: int
    throughput_gbps: float
    #: exact stage-histogram payload (repro.obs.hist) from the last rep;
    #: deterministic in the seed, so any rep yields the same counts
    hist: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "kind": self.scenario.kind,
            "params": self.scenario.params_dict(),
            "wall_s": self.wall_s.to_dict(),
            "events_per_sec": self.events_per_sec.to_dict(),
            "events_executed": self.events_executed,
            "throughput_gbps": self.throughput_gbps,
        }
        # additive: hist-off cells serialize exactly as schema v1 always did
        if self.hist is not None:
            out["hist"] = self.hist
        return out


ProgressFn = Callable[[str, int, int], None]


def run_bench(
    scenarios: Sequence[BenchScenario],
    reps: int = DEFAULT_REPS,
    warmup_ns: float = FULL_WINDOWS["warmup_ns"],
    measure_ns: float = FULL_WINDOWS["measure_ns"],
    seed: int = 0,
    ci_seed: int = 0,
    warmup_reps: int = 1,
    progress: Optional[ProgressFn] = None,
) -> List[ScenarioBench]:
    """Run every scenario ``reps`` timed times (after ``warmup_reps``
    untimed ones absorbing first-touch import/allocator costs) and
    summarize with bootstrap CIs."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    out: List[ScenarioBench] = []
    for scenario in scenarios:
        walls: List[float] = []
        rates: List[float] = []
        events = 0
        gbps = 0.0
        hist: Optional[Dict[str, Any]] = None
        for _ in range(warmup_reps):
            scenario.run_once(seed, warmup_ns, measure_ns)
        for rep in range(reps):
            if progress is not None:
                progress(scenario.name, rep, reps)
            started = time.perf_counter()
            res = scenario.run_once(seed, warmup_ns, measure_ns)
            wall = time.perf_counter() - started
            walls.append(wall)
            rates.append(res.events_executed / wall if wall > 0 else 0.0)
            events = res.events_executed
            gbps = res.throughput_gbps
            hist = getattr(res, "hist", None)
        out.append(
            ScenarioBench(
                scenario=scenario,
                wall_s=SampleStats.from_samples(walls, seed=ci_seed),
                events_per_sec=SampleStats.from_samples(rates, seed=ci_seed),
                events_executed=events,
                throughput_gbps=gbps,
                hist=hist,
            )
        )
    return out


# -------------------------------------------------------------------- payload
def git_sha(repo_dir: Optional[Path] = None) -> str:
    """Short HEAD sha, or ``nogit`` outside a repository."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_dir, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() or "nogit"
    except Exception:
        return "nogit"


def bench_filename(sha: str) -> str:
    return f"BENCH_{sha}.json"


def bench_payload(
    results: Sequence[ScenarioBench],
    reps: int,
    warmup_ns: float,
    measure_ns: float,
    seed: int,
    sha: Optional[str] = None,
) -> Dict[str, Any]:
    """The schema-versioned JSON document ``repro bench`` emits."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "repro-bench",
        "git_sha": sha if sha is not None else git_sha(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "reps": reps,
        "warmup_ns": warmup_ns,
        "measure_ns": measure_ns,
        "seed": seed,
        "scenarios": {r.scenario.name: r.to_dict() for r in results},
    }


def write_payload(payload: Dict[str, Any], path: Path) -> Path:
    from repro.resilience.atomic import atomic_write_json

    return atomic_write_json(path, payload, trailing_newline=True)


def load_payload(path: Path) -> Dict[str, Any]:
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: bench schema version {version!r} unsupported "
            f"(expected {BENCH_SCHEMA_VERSION})"
        )
    if payload.get("kind") != "repro-bench":
        raise ValueError(f"{path}: not a repro-bench payload")
    return payload


def payload_scenario_rows(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-scenario headline numbers from a BENCH payload, sorted by name.

    The normalized view consumers render (`repro report`, ad-hoc
    dashboards): missing stats come back as ``None`` rather than raising,
    so partially-filled payloads still display.
    """
    rows: List[Dict[str, Any]] = []
    for name, scenario in sorted(payload.get("scenarios", {}).items()):
        if not isinstance(scenario, dict):
            continue
        wall = (scenario.get("wall_s") or {}).get("mean")
        rate = (scenario.get("events_per_sec") or {}).get("mean")
        rows.append(
            {
                "name": name,
                "wall_ms": wall * 1e3 if wall else None,
                "events_per_sec": rate if rate else None,
                "throughput_gbps": scenario.get("throughput_gbps"),
            }
        )
    return rows


# -------------------------------------------------------------------- compare
@dataclass
class MetricDelta:
    """One scenario metric compared against the baseline."""

    scenario: str
    metric: str              # "wall_s" | "events_per_sec"
    baseline: SampleStats
    current: SampleStats
    delta_pct: float         # + means degraded (slower / fewer events per sec)
    status: str              # "ok" | "regression" | "improvement"


@dataclass
class CompareReport:
    """Outcome of ``repro bench --compare``."""

    baseline_sha: str
    current_sha: str
    max_slowdown: float
    deltas: List[MetricDelta] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)   # scenarios only in baseline
    added: List[str] = field(default_factory=list)     # scenarios only in current

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def report(self) -> str:
        lines = [
            f"bench compare: {self.current_sha} vs baseline {self.baseline_sha} "
            f"(tolerance {self.max_slowdown * 100:.0f}% beyond CI overlap)"
        ]
        for d in self.deltas:
            mark = {"ok": " ", "regression": "!", "improvement": "+"}[d.status]
            lines.append(
                f" {mark} {d.scenario:<28} {d.metric:<14} "
                f"{d.baseline.mean:10.4g} -> {d.current.mean:10.4g} "
                f"({d.delta_pct:+6.1f}%)  {d.status}"
            )
        if self.missing:
            lines.append(f" ? missing from current run: {', '.join(self.missing)}")
        if self.added:
            lines.append(f" + new scenarios (no baseline): {', '.join(self.added)}")
        lines.append(
            f"{len(self.regressions)} regression(s) across "
            f"{len({d.scenario for d in self.deltas})} scenario(s)"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "baseline_sha": self.baseline_sha,
            "current_sha": self.current_sha,
            "max_slowdown": self.max_slowdown,
            "ok": self.ok,
            "missing": list(self.missing),
            "added": list(self.added),
            "deltas": [
                {
                    "scenario": d.scenario,
                    "metric": d.metric,
                    "baseline_mean": d.baseline.mean,
                    "current_mean": d.current.mean,
                    "delta_pct": d.delta_pct,
                    "status": d.status,
                }
                for d in self.deltas
            ],
        }


def _classify(
    baseline: SampleStats, current: SampleStats,
    degraded_pct: float, max_slowdown: float,
) -> str:
    """CI-overlap test: a drift only counts once the intervals are
    disjoint *and* the mean moved past the tolerance — overlapping CIs
    mean the difference is within measured noise by construction."""
    if baseline.overlaps(current):
        return "ok"
    if degraded_pct > max_slowdown * 100.0:
        return "regression"
    if degraded_pct < -max_slowdown * 100.0:
        return "improvement"
    return "ok"


def compare_payloads(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_slowdown: float = 0.10,
) -> CompareReport:
    """Flag scenarios whose wall time or events/sec regressed."""
    report = CompareReport(
        baseline_sha=str(baseline.get("git_sha", "?")),
        current_sha=str(current.get("git_sha", "?")),
        max_slowdown=max_slowdown,
    )
    cur_scenarios = current.get("scenarios", {})
    base_scenarios = baseline.get("scenarios", {})
    report.missing = sorted(set(base_scenarios) - set(cur_scenarios))
    report.added = sorted(set(cur_scenarios) - set(base_scenarios))
    for name in sorted(set(cur_scenarios) & set(base_scenarios)):
        cur, base = cur_scenarios[name], base_scenarios[name]
        # wall time: up is worse
        b = SampleStats.from_dict(base["wall_s"])
        c = SampleStats.from_dict(cur["wall_s"])
        degraded = (c.mean / b.mean - 1.0) * 100.0 if b.mean > 0 else 0.0
        report.deltas.append(
            MetricDelta(name, "wall_s", b, c, degraded,
                        _classify(b, c, degraded, max_slowdown))
        )
        # events/sec: down is worse
        b = SampleStats.from_dict(base["events_per_sec"])
        c = SampleStats.from_dict(cur["events_per_sec"])
        degraded = (b.mean / c.mean - 1.0) * 100.0 if c.mean > 0 else 0.0
        report.deltas.append(
            MetricDelta(name, "events_per_sec", b, c, degraded,
                        _classify(b, c, degraded, max_slowdown))
        )
    return report


def format_results(results: Sequence[ScenarioBench]) -> str:
    """Human-readable table of one bench run."""
    lines = [
        f"{'scenario':<28} {'wall mean':>10} {'95% CI':>23} "
        f"{'events/s':>10} {'throughput':>11}",
        "-" * 88,
    ]
    for r in results:
        w = r.wall_s
        lines.append(
            f"{r.scenario.name:<28} {w.mean * 1e3:8.1f}ms "
            f"[{w.ci_lo * 1e3:8.1f}, {w.ci_hi * 1e3:8.1f}]ms "
            f"{r.events_per_sec.mean / 1e3:7.0f}k {r.throughput_gbps:9.2f} G"
        )
    return "\n".join(lines)
