"""Self-tests of the benchmark (run with ``python -m pytest perfbench``).

They check the benchmark, not the simulator: names fit the result
format, seeds determine inputs, traced and untraced runs agree and
repeat their counts exactly, and a perturbed cost model is caught.
"""

import copy
import dataclasses
import json
import re

import pytest

from perfbench import run as bench_run
from perfbench import workloads as wl
from repro.analysis.conservation import check_conservation
from repro.experiments import fig7_batch_size as fig7
from repro.netstack.costs import CostModel

NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: the 64-flow cell on windows short enough for a unit test
SHORT = dataclasses.replace(wl.FLOWS64, warmup_ns=50_000.0, measure_ns=100_000.0)


def scaled_costs(factor: float) -> CostModel:
    """Every per-operation cost of the default model scaled by ``factor``."""
    base = CostModel()
    return base.with_overrides(**{
        name: getattr(base, name) * factor
        for name in base.__dataclass_fields__
        if name.endswith("_ns") and isinstance(getattr(base, name), float)
    })


def test_names_fit_the_result_format():
    spec = bench_run.SPEC
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)


def test_seeds_determine_inputs():
    name = wl.FLOWS64.name
    assert wl.cell_seeds(name, 7) == wl.cell_seeds(name, 7)
    assert wl.cell_seeds(name, 7) != wl.cell_seeds(name, 8)
    assert len(set(wl.cell_seeds(name, 7))) == wl.CELLS_PER_PASS
    a, b = wl.cell_seeds(name, 7)[:2]
    first, again, other = SHORT.run_cell(a), SHORT.run_cell(a), SHORT.run_cell(b)
    assert first.error is None and first.conserved
    assert first.digest == again.digest
    assert first.digest != other.digest


def test_sweep_seeds_determine_inputs():
    """The sweeps' cell seeds, as ``RunEngine`` derives them from each
    sweep's global seed: fixed by the workload seed, and shared by no
    two workload seeds."""
    specs = fig7.specs(quick=True)

    def inputs(seed):
        return [[spec.derived_seed(g) for spec in specs] for g in wl.sweep_seeds(seed)]

    assert inputs(7) == inputs(7)
    seen = [set(sweep) for seed in (6, 7, 8) for sweep in inputs(seed)]
    assert all(len(s) == len(specs) for s in seen)
    assert all(not (x & y) for i, x in enumerate(seen) for y in seen[i + 1:])


def test_conservation_catches_lost_packets():
    cell = SHORT.run_cell(wl.cell_seeds(wl.FLOWS64.name, 7)[0])
    assert cell.conserved
    in_flight = check_conservation(cell.measurements["counters"], 0, "tcp").unaccounted
    headroom = cell.slack - in_flight
    # losing more than 5% of the NIC's packets always fails the cell
    assert 0 <= headroom < 0.05 * cell.pkts
    lossy = copy.deepcopy(cell.measurements)
    lossy["counters"]["tcp_delivered_segments"] -= headroom + 1
    assert not wl.conserved(lossy, cell.slack)
    # the sweep cells: one flow's TCP window of 64 KB messages
    assert wl.SWEEP_SLACK == 24 * 46
    rx = {"nic_rx_packets": 9400}
    assert wl.conserved({"counters": {**rx, "tcp_delivered_segments": 9400 - 1104}}, 1104)
    assert not wl.conserved({"counters": {**rx, "tcp_delivered_segments": 9400 - 1105}}, 1104)


def test_host_speed_scales_only_host_times():
    end_to_end = bench_run.SPEC["end_to_end"]
    assert {m["name"] for m in end_to_end if m["unit"] == "s"} == set(wl.HOST_SECONDS)
    speed = wl.HostSpeed()
    speed.points = [2 * wl.REFERENCE_KERNEL_S] * 3    # a host at half speed
    scaled = speed.scale({m["name"]: 1.0 for m in end_to_end})
    for name, value in scaled.items():
        expected = 0.5 if name in wl.HOST_SECONDS else 2.0 if name in wl.HOST_RATES else 1.0
        assert value == expected, name


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(40)]
    value, pct, n = wl.tail(values)
    assert n == 40 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(75.0)
    assert wl.tail(values[:11]) == (0.0, pytest.approx(100 / 11), 11)
    assert wl.tail([3.0, 1.0, 2.0]) == (1.0, pytest.approx(100 / 3), 3)


def test_traced_run_matches_untraced_and_repeats_counts():
    reports = [SHORT.run_traced(5, seconds=0.0) for _ in range(2)]
    for report in reports:
        assert report.correct, report.failures
        assert {m["name"] for m in bench_run.SPEC["per_layer"]} <= set(report.metrics)
    counts = [name for name in reports[0].metrics
              if name.endswith(("calls_per_pkt", "items_per_pkt", "hops_per_pkt",
                                "events_per_pkt", "records_per_pkt", "pkts_per_poll"))]
    assert "py_calls_per_pkt" in counts and len(counts) >= 8
    for name in counts:
        assert reports[0].metrics[name] == reports[1].metrics[name], name
        assert reports[0].metrics[name] > 0, name


def test_perturbed_cost_model_fails_every_cell():
    report = wl.FLOWS64.run(wl.REFERENCE_SEED, seconds=0.0,
                             costs=scaled_costs(1.25), reference=wl.load_reference())
    assert report.attempted >= wl.CELLS_PER_PASS
    assert report.failed == report.attempted
    assert report.notes["fail_frac"] == 1.0
    line = bench_run.contract_line(report, traced=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False
    assert [m["name"] for m in bench_run.SPEC["end_to_end"]] == list(line["metrics"])
    json.dumps(line, allow_nan=False)
