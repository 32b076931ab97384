"""Tests for the CLI and the per-hop latency decomposition it reports."""

import pytest

from repro.cli import build_parser, main
from repro.workloads.sockperf import run_single_flow


class TestCli:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        actions = {a.dest: a for a in parser._actions}
        choices = actions["command"].choices
        assert set(choices) == {
            "throughput", "latency", "multiflow", "memcached", "compare",
            "ceilings", "faults", "trace", "prof", "bench", "fidelity",
            "resume", "fsck", "migrate", "top", "metrics", "report", "diff",
            "runner",
        }

    def test_throughput_command_runs(self, capsys):
        rc = main([
            "throughput", "--system", "vanilla", "--proto", "tcp",
            "--size", "65536", "--warmup-ms", "0.5", "--measure-ms", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Gbps" in out and "core utilization" in out

    def test_ceilings_command_runs(self, capsys):
        assert main(["ceilings", "--proto", "udp"]) == 0
        out = capsys.readouterr().out
        assert "vanilla overlay" in out

    def test_multiflow_command_runs(self, capsys):
        rc = main([
            "multiflow", "--system", "mflow", "--flows", "2",
            "--warmup-ms", "0.5", "--measure-ms", "2",
        ])
        assert rc == 0
        assert "aggregate" in capsys.readouterr().out

    LATENCY = ["latency", "--system", "vanilla", "--proto", "tcp",
               "--warmup-ms", "0.2", "--measure-ms", "0.5"]

    def test_latency_honours_seed(self, capsys):
        outs = []
        for seed in ("0", "1"):
            assert main(self.LATENCY + ["--seed", seed]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1]

    def test_latency_honours_windows(self, monkeypatch, capsys):
        from repro.experiments import fig9_latency

        seen = []
        real = fig9_latency.run_specs

        def spy(experiment, specs, *a, **kw):
            seen.extend(specs)
            return real(experiment, specs, *a, **kw)

        monkeypatch.setattr(fig9_latency, "run_specs", spy)
        assert main(self.LATENCY + ["--seed", "3"]) == 0
        (spec,) = seen
        assert (spec.warmup_ns, spec.measure_ns, spec.seed) == (2e5, 5e5, 3)

    def test_latency_defaults_are_fig9_full_cell(self):
        from repro.experiments.base import windows

        args = build_parser().parse_args(["latency"])
        assert args.seed == 0
        assert args.warmup_ms * 1e6 == windows(False)["warmup_ns"]
        assert args.measure_ms * 1e6 == windows(False)["measure_ns"]

    def test_memcached_honours_windows(self, monkeypatch, capsys):
        import repro.cli as cli

        seen = []
        real = cli.run_memcached

        def spy(*a, **kw):
            seen.append(kw)
            return real(*a, **kw)

        monkeypatch.setattr(cli, "run_memcached", spy)
        assert main(["memcached", "--system", "vanilla", "--clients", "1",
                     "--warmup-ms", "0.2", "--measure-ms", "1"]) == 0
        assert (seen[0]["warmup_ns"], seen[0]["measure_ns"]) == (2e5, 1e6)
        # the default window is Fig. 13's (run_memcached's own default)
        assert build_parser().parse_args(["memcached"]).measure_ms == 20.0

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_invalid_system_exits(self):
        with pytest.raises(SystemExit):
            main(["throughput", "--system", "bogus"])


class TestDecomposition:
    def test_names_mflow_split_and_merge(self):
        res = run_single_flow(
            "mflow", "tcp", 65536, obs=True, warmup_ns=0.5e6, measure_ns=1.5e6
        )
        names = {row["stage"] for row in res.obs["decomposition"]["stages"]}
        assert "mflow_split" in names and "mflow_merge" in names
