"""Tests for the extended CLI subcommands."""

import json

import pytest

from repro.cli import main


class TestSimulateCommand:
    def test_basic_run(self, capsys):
        assert main(["simulate", "SS(1,16,4)", "--suite", "storm",
                     "--requests", "60"]) == 0
        out = capsys.readouterr().out
        assert "SS(1,16,4)" in out
        assert "latency p50/p90/p99/max" in out

    def test_json_export(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main([
            "simulate", "P(1,16)", "--suite", "fig7",
            "--requests", "40", "--json", str(target),
        ]) == 0
        data = json.loads(target.read_text())
        assert data["makespan"] > 0
        assert "cores" in data

    def test_csv_export(self, tmp_path):
        target = tmp_path / "requests.csv"
        assert main([
            "simulate", "P(1,16)", "--suite", "fig7",
            "--requests", "40", "--csv", str(target),
        ]) == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("core,block")
        assert len(lines) > 1

    def test_different_suites(self, capsys):
        for suite in ("readonly", "mixed", "pingpong"):
            assert main([
                "simulate", "SS(1,16,4)", "--suite", suite, "--requests", "40",
            ]) == 0


class TestWorkloadCommand:
    def test_list(self, capsys):
        assert main(["workload", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "storm" in out

    def test_dump_traces(self, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        assert main([
            "workload", "fig7", "--cores", "2", "--requests", "30",
            "--out", str(out_dir),
        ]) == 0
        files = sorted(out_dir.glob("*.trace"))
        assert len(files) == 2
        from repro.workloads.trace import read_trace

        trace = read_trace(files[0])
        assert len(trace) == 30

    def test_dumped_traces_replayable(self, tmp_path):
        out_dir = tmp_path / "traces"
        main(["workload", "storm", "--cores", "2", "--requests", "24",
              "--out", str(out_dir)])
        from repro.sim.simulator import simulate
        from repro.workloads.trace import read_trace
        from sim_helpers import shared_partition, small_config

        traces = {
            core: read_trace(out_dir / f"storm-core{core}.trace")
            for core in (0, 1)
        }
        config = small_config(
            num_cores=2,
            partitions=[shared_partition(2, ways=4)],
            llc_sets=1,
            llc_ways=4,
        )
        report = simulate(config, traces)
        assert not report.timed_out


class TestTimelineCommand:
    def test_renders(self, capsys):
        assert main([
            "timeline", "SS(1,16,2)", "--cores", "2", "--slots", "30",
            "--requests", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "core  0" in out
        assert "legend:" in out


class TestTightnessCommand:
    def test_runs(self, capsys):
        assert main(["tightness", "--repeats", "8"]) == 0
        out = capsys.readouterr().out
        assert "Bound tightness" in out


class TestAllCommand:
    def test_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(["all", "--out", str(out_dir), "--requests", "100"])
        assert (out_dir / "SUMMARY.txt").exists()
        assert (out_dir / "figure-7.txt").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "figure-7" in summary
        assert code in (0, 1)  # shape checks may be noisy at tiny sizes


class TestBadInput:
    """Bad user input ends in one ``error:`` line and exit code 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "P(1,16,4)", "--requests", "10"],
            ["simulate", "XX", "--requests", "10"],
            ["stats", "NSS(1,16)", "--requests", "10"],
        ],
    )
    def test_bad_notation_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "SS(1,16,4)"],
            ["stats", "SS(1,16,4)"],
            ["fig7"],
            ["fig8", "8a"],
            ["all", "--out", "unused"],
        ],
    )
    @pytest.mark.parametrize("requests", ["0", "-5"])
    def test_non_positive_requests_rejected_at_parse_time(
        self, argv, requests, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--requests", requests])
        assert excinfo.value.code == 2
        assert "--requests: must be positive" in capsys.readouterr().err
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "SS(1,16,4)", "--cores", "0"],
            ["bounds", "SS(1,16,4)", "--slot-width", "0"],
            ["bounds", "SS(1,16,4)", "--cores", "2"],
            ["unbounded", "--lengths", "5"],
            ["unbounded", "--lengths", "40", "40"],
        ],
    )
    def test_bad_analysis_parameters_are_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert "grows with the stream" not in captured.out

    @pytest.mark.parametrize("slots", ["0", "-3"])
    def test_non_positive_timeline_slots_rejected_at_parse_time(
        self, slots, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["timeline", "--slots", slots])
        assert excinfo.value.code == 2
        assert "--slots: must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, manifest",
        [("all", "manifest.json"), ("fuzz", "fuzz-manifest.json")],
    )
    def test_version_1_manifest_is_a_usage_error(
        self, command, manifest, tmp_path, capsys
    ):
        out = tmp_path / "out"
        out.mkdir()
        document = json.dumps({"version": 1, "tasks": {}}, indent=2) + "\n"
        (out / manifest).write_text(document)
        argv = [command, "--out", str(out)]
        argv += ["--requests", "10"] if command == "all" else ["--budget", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run manifest ")
        assert err.count("\n") == 1
        assert "delete the manifest to start a fresh campaign" in err
        assert (out / manifest).read_text() == document
