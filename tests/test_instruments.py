"""Drift guards for the five instrument toggles.

``Scenario.__init__`` is the only function that declares ``faults``,
``obs``, ``selfprof``, ``migration`` and ``hist``; every entry point
forwards them, and one ``run_scenario_params`` maps spec params to a run
for both the runner factories and ``repro bench``.
"""

import inspect

import pytest

from repro.perf.bench import BenchScenario
from repro.runner import scenario_result_to_dict
from repro.runner.factories import run_scenario_params
from repro.runner.registry import resolve
from repro.workloads import scenario as scenario_mod
from repro.workloads.multiflow import build_multiflow_scenario, run_multiflow
from repro.workloads.scenario import INSTRUMENT_KEYS, Scenario
from repro.workloads.sockperf import build_scenario, run_single_flow

TINY = {"warmup_ns": 100_000.0, "measure_ns": 400_000.0}

#: Scenario.__init__ parameters that describe the testbed, not an instrument
STRUCTURAL = (
    "self", "kind", "proto", "policy_factory", "costs", "seed",
    "n_receiver_cores", "irq_core", "rss_core_indices",
)

SOCKPERF = {"system": "mflow", "proto": "tcp", "size": 65536}
MULTIFLOW = {"system": "mflow", "n_flows": 2, "size": 4096}
ALL_TOGGLES = {
    "faults": "loss1", "obs": True, "selfprof": True,
    "migration": "default", "hist": False,
}


def _without_host_time(measurements):
    out = dict(measurements)
    out.pop("selfprof", None)  # wall-clock cost centers differ run to run
    return out


class _Built(Exception):
    """Raised by the spy once Scenario has seen its keywords."""


@pytest.fixture
def scenario_spy(monkeypatch):
    """Record the keywords each Scenario is built with, then stop the run."""
    seen = []

    def spy(self, *args, **kwargs):
        seen.append(kwargs)
        raise _Built

    monkeypatch.setattr(scenario_mod.Scenario, "__init__", spy)
    return seen


class TestDeclaration:
    def test_instrument_keys_match_scenario_signature(self):
        params = inspect.signature(Scenario.__init__).parameters
        toggles = tuple(name for name in params if name not in STRUCTURAL)
        assert toggles == INSTRUMENT_KEYS

    @pytest.mark.parametrize(
        "entry",
        [build_scenario, run_single_flow, build_multiflow_scenario, run_multiflow],
    )
    def test_entry_points_forward_instead_of_declaring(self, entry):
        params = inspect.signature(entry).parameters
        assert not set(params) & set(INSTRUMENT_KEYS)
        assert any(p.kind is p.VAR_KEYWORD for p in params.values())


class TestSpecToRun:
    @pytest.mark.parametrize(
        "kind,params", [("sockperf", SOCKPERF), ("multiflow", MULTIFLOW)]
    )
    def test_every_toggle_reaches_scenario(self, scenario_spy, kind, params):
        spec_params = dict(params, **ALL_TOGGLES)
        with pytest.raises(_Built):
            resolve(kind)(spec_params, 0, **TINY)
        with pytest.raises(_Built):
            BenchScenario.make("spy", kind, **spec_params).run_once(0, **TINY)
        assert len(scenario_spy) == 2
        for kwargs in scenario_spy:
            for key in INSTRUMENT_KEYS:
                assert kwargs[key] == ALL_TOGGLES[key]

    def test_absent_toggles_take_scenario_defaults(self, scenario_spy):
        with pytest.raises(_Built):
            run_scenario_params("sockperf", SOCKPERF, 0, **TINY)
        (kwargs,) = scenario_spy
        assert not set(kwargs) & set(INSTRUMENT_KEYS)

    @pytest.mark.parametrize(
        "kind,params", [("sockperf", SOCKPERF), ("multiflow", MULTIFLOW)]
    )
    def test_bench_and_factory_records_agree(self, kind, params):
        spec_params = dict(params, hist=False, faults="loss1")
        via_factory = resolve(kind)(spec_params, 3, **TINY)
        via_bench = BenchScenario.make("x", kind, **spec_params).run_once(3, **TINY)
        assert _without_host_time(scenario_result_to_dict(via_bench)) == (
            _without_host_time(via_factory)
        )
        assert via_factory["fault_plan"] == "loss1"
        assert "hist" not in via_factory

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_scenario_params("nope", {}, 0, **TINY)


class TestLoadedFactory:
    """Fig. 9's open-loop cell: the measured run takes the spec's toggles."""

    PARAMS = {"system": "vanilla", "proto": "udp", "size": 16384, "load_factor": 0.9}

    def test_measured_run_takes_toggles(self):
        factory = resolve("sockperf_loaded")
        plain = factory(dict(self.PARAMS), 0, **TINY)
        assert "hist" in plain and plain["fault_plan"] == ""
        assert "hist" not in factory(dict(self.PARAMS, hist=False), 0, **TINY)
        lossy = factory(dict(self.PARAMS, faults="loss1"), 0, **TINY)
        assert lossy["fault_plan"] == "loss1"
        # the capacity probe stays plain, so the offered load is unchanged
        assert lossy["probe_gbps"] == plain["probe_gbps"]

    def test_probe_is_built_plain(self, monkeypatch):
        seen = []
        real_init = scenario_mod.Scenario.__init__

        def spy(self, *args, **kwargs):
            seen.append(kwargs)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(scenario_mod.Scenario, "__init__", spy)
        resolve("sockperf_loaded")(dict(self.PARAMS, hist=False), 0, **TINY)
        probe, measured = seen
        assert "hist" not in probe and measured["hist"] is False
