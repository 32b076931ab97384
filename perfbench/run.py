"""Run the repository benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload flows64_rss --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload
    python3 perfbench/run.py --workload all --seed 0 --traced # per-layer metrics

Prints every metric with its unit, writes the results as JSON under
``perfbench/results/``, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  A failed output check shows as ``"correct": false``
(and in ``failed``); the exit code is 0 whenever a result line is printed.
Without ``src/repro`` the run exits 2 and prints no result.

``--workload all`` runs each workload in a process of its own (so that
``peak_rss_mb`` is each workload's own peak) and merges their results.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = Path(__file__).resolve().parent / "results"


def metric_specs(traced: bool):
    return SPEC["per_layer"] if traced else SPEC["end_to_end"]


def contract_line(report, traced: bool) -> dict:
    """The result object: every metric of the contract, by name and unit."""
    return {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            spec["name"]: {"value": report.metrics[spec["name"]], "unit": spec["unit"]}
            for spec in metric_specs(traced)
        },
    }


def results_path(workload: str, seed: int, traced: bool) -> Path:
    return RESULTS / f"{workload}-seed{seed}{'-traced' if traced else ''}.json"


def run_all(args, names) -> int:
    """Run every workload in a child process of this script; merge the
    children's result files into one result (metrics prefixed with the
    workload)."""
    traced = bool(args.trace)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    reports = []
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.write_reference:
            cmd.append("--write-reference")
        if subprocess.run(cmd).returncode != 0:
            print(f"workload {name} exited without a result", file=sys.stderr)
            return 1
        child = json.loads(results_path(name, args.seed, traced).read_text())
        merged["correct"] = merged["correct"] and child["correct"]
        merged["attempted"] += child["attempted"]
        merged["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
        reports += child["reports"]
    out = results_path("all", args.seed, traced)
    out.write_text(json.dumps({**merged, "reports": reports}, indent=1) + "\n")
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps(merged))
    return 0


def print_report(report, traced: bool) -> None:
    mode = "traced" if traced else "untraced"
    print(f"== {report.workload} seed {report.seed} ({mode}) ==")
    for spec in metric_specs(traced):
        name = spec["name"]
        line = f"  {name:36s} {report.metrics[name]:16.6f} {spec['unit']}"
        if name == "cell_tail_s":
            line += f"   (p{report.notes['cell_tail_pct']} of {report.notes['cells']} cells)"
        print(line)
    print(f"  {'fail_frac':36s} {report.notes['fail_frac']:16.6f} ratio"
          f"   ({report.failed} of {report.attempted})")
    for key in ("sweep_s", "diff_s"):
        if key in report.notes:
            print(f"  {key:36s} {report.notes[key]:16.6f} s")
    if "host_speed_factor" in report.notes:
        print(f"  {'host_speed_factor':36s} {report.notes['host_speed_factor']:16.6f}"
              f"   (reference s per host s; raw host times in the results JSON)")
    for failure in report.failures:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's simulated-output digests as the "
                             "reference (untraced runs of the reference seed only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    from perfbench import workloads as wl

    traced = bool(args.trace)
    if args.write_reference and (traced or args.seed != wl.REFERENCE_SEED):
        parser.error(f"--write-reference needs --trace 0 and --seed {wl.REFERENCE_SEED}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args, names)
    reference = None if args.write_reference else wl.load_reference()
    workload = wl.WORKLOADS[args.workload]
    run = workload.run_traced if traced else workload.run
    report = run(args.seed, args.seconds, reference=reference)
    print_report(report, traced)

    if args.write_reference:
        stored = wl.load_reference()
        stored["seed"] = wl.REFERENCE_SEED
        stored[report.workload] = report.digests
        wl.REFERENCE_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        print(f"wrote {wl.REFERENCE_PATH.relative_to(ROOT)}")

    line = contract_line(report, traced)
    out = results_path(args.workload, args.seed, traced)
    out.write_text(json.dumps({
        **line,
        "reports": [
            {"workload": report.workload, "seed": report.seed, "metrics": report.metrics,
             "notes": report.notes, "failures": report.failures, "digests": report.digests},
        ],
    }, indent=1) + "\n")
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
