"""The crash-tolerant campaign runner: retry, timeout, quarantine, resume."""

import json
import time

import pytest

from repro.common.errors import (
    CampaignError,
    ConfigurationError,
    ReproError,
    SimulationError,
    TaskTimeoutError,
)
from repro.robustness.runner import (
    MANIFEST_VERSION,
    CampaignRunner,
    RetryPolicy,
    RunManifest,
    run_all_robust,
    sweep_seeds_robust,
)
from repro.sim.sweeps import sweep_seeds
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)
from sim_helpers import small_config


class TestRetryPolicy:
    def test_backoff_grows_geometrically(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=0.5, backoff_factor=3.0)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.5
        assert policy.delay(3) == 4.5

    def test_rejects_zero_attempts(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)


class TestRetryAndQuarantine:
    def test_transient_failure_retries_then_succeeds(self, tmp_path):
        sleeps = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient blip")
            return "ok"

        runner = CampaignRunner(
            manifest_path=tmp_path / "m.json",
            retry=RetryPolicy(max_attempts=3, backoff_base=0.1),
            sleep=sleeps.append,
        )
        result = runner.run([("flaky", flaky)])
        assert result.all_ok
        assert result.outcomes[0].attempts == 3
        assert sleeps == [0.1, 0.2]

    def test_transient_failure_exhausts_attempts(self, tmp_path):
        def always_down():
            raise OSError("still down")

        runner = CampaignRunner(
            manifest_path=tmp_path / "m.json",
            retry=RetryPolicy(max_attempts=2, backoff_base=0),
            sleep=lambda _s: None,
        )
        result = runner.run([("down", always_down)])
        assert not result.all_ok
        outcome = result.outcomes[0]
        assert outcome.status == "quarantined"
        assert outcome.attempts == 2
        assert outcome.error_type == "OSError"

    def test_model_errors_are_never_retried(self, tmp_path):
        attempts = []

        def deterministic():
            attempts.append(1)
            raise SimulationError("model violation — retrying cannot help")

        runner = CampaignRunner(
            manifest_path=tmp_path / "m.json",
            retry=RetryPolicy(max_attempts=5, backoff_base=0),
            transient_types=(OSError, ReproError),
            sleep=lambda _s: None,
        )
        result = runner.run([("det", deterministic)])
        assert len(attempts) == 1
        assert result.outcomes[0].status == "quarantined"

    def test_quarantine_does_not_stop_the_campaign(self, tmp_path):
        order = []

        def bad():
            order.append("bad")
            raise ValueError("boom")

        def good():
            order.append("good")
            return 42

        runner = CampaignRunner(
            manifest_path=tmp_path / "m.json", retry=RetryPolicy(max_attempts=1)
        )
        result = runner.run([("bad", bad), ("good", good)])
        assert order == ["bad", "good"]
        assert [o.status for o in result.outcomes] == ["quarantined", "done"]
        assert [o.name for o in result.quarantined] == ["bad"]
        assert not result.all_ok

    def test_duplicate_task_names_rejected(self):
        runner = CampaignRunner()
        with pytest.raises(ConfigurationError):
            runner.run([("a", lambda: 1), ("a", lambda: 2)])


class TestTimeout:
    def test_hung_task_is_quarantined_not_retried(self, tmp_path):
        attempts = []

        def hang():
            attempts.append(1)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                pass

        runner = CampaignRunner(
            manifest_path=tmp_path / "m.json",
            timeout=0.2,
            retry=RetryPolicy(max_attempts=3, backoff_base=0),
        )
        started = time.monotonic()
        result = runner.run([("hang", hang), ("after", lambda: "ran")])
        assert time.monotonic() - started < 4.0
        assert len(attempts) == 1
        assert result.outcomes[0].status == "quarantined"
        assert result.outcomes[0].error_type == "TaskTimeoutError"
        assert result.outcomes[1].status == "done"

    def test_fast_task_unaffected_by_timeout(self, tmp_path):
        runner = CampaignRunner(manifest_path=tmp_path / "m.json", timeout=5.0)
        result = runner.run([("quick", lambda: "ok")])
        assert result.all_ok

    def test_timeout_error_is_a_campaign_error(self):
        assert issubclass(TaskTimeoutError, CampaignError)

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ConfigurationError):
            CampaignRunner(timeout=0)


class TestManifestAndResume:
    def test_manifest_written_after_every_task(self, tmp_path):
        path = tmp_path / "m.json"
        seen = []

        def spy():
            seen.append(
                [json.loads(line) for line in path.read_text().splitlines()]
            )
            return "ok"

        runner = CampaignRunner(manifest_path=path)
        runner.run([("first", lambda: 1), ("second", spy)])
        # By the time 'second' starts, 'first' is already journalled:
        # the header line, then one line for the finished task.
        header, first = seen[0]
        assert header == {"version": MANIFEST_VERSION}
        assert first["name"] == "first"
        assert first["entry"]["status"] == "done"

    def test_resume_skips_done_tasks(self, tmp_path):
        path = tmp_path / "m.json"
        runs = []
        tasks = [
            ("a", lambda: runs.append("a") or "a"),
            ("b", lambda: runs.append("b") or "b"),
        ]
        CampaignRunner(manifest_path=path).run(tasks)
        result = CampaignRunner(manifest_path=path).run(tasks)
        assert runs == ["a", "b"]
        assert [o.status for o in result.outcomes] == ["skipped", "skipped"]
        assert result.all_ok

    def test_no_resume_reruns_everything(self, tmp_path):
        path = tmp_path / "m.json"
        runs = []
        tasks = [("a", lambda: runs.append("a"))]
        CampaignRunner(manifest_path=path).run(tasks)
        CampaignRunner(manifest_path=path).run(tasks, resume=False)
        assert runs == ["a", "a"]

    def test_quarantined_tasks_are_retried_on_resume(self, tmp_path):
        path = tmp_path / "m.json"
        state = {"fixed": False}

        def sometimes():
            if not state["fixed"]:
                raise ValueError("broken this run")
            return "ok"

        runner = CampaignRunner(
            manifest_path=path, retry=RetryPolicy(max_attempts=1)
        )
        first = runner.run([("flappy", sometimes)])
        assert not first.all_ok
        state["fixed"] = True
        second = CampaignRunner(
            manifest_path=path, retry=RetryPolicy(max_attempts=1)
        ).run([("flappy", sometimes)])
        assert second.all_ok
        assert second.outcomes[0].status == "done"

    def test_malformed_manifest_is_a_campaign_error(self, tmp_path):
        path = tmp_path / "m.json"
        header = json.dumps({"version": MANIFEST_VERSION}) + "\n"
        good = json.dumps({"name": "a", "entry": {"status": "done"}}) + "\n"
        # A line that does not parse is torn only when it is the last.
        path.write_text(header + "not json at all {\n" + good)
        with pytest.raises(CampaignError, match="unreadable: line 2"):
            RunManifest.load(path)
        # Lines that parse but are not a name plus an entry object.
        for record in (
            5,
            [1, 2],
            None,
            {"name": "a"},
            {"entry": {}},
            {"name": 1, "entry": {}},
            {"name": "a", "entry": []},
        ):
            path.write_text(header + json.dumps(record) + "\n" + good)
            with pytest.raises(CampaignError, match="malformed at line 2"):
                RunManifest.load(path)
            path.write_text(header + good + json.dumps(record) + "\n")
            with pytest.raises(CampaignError, match="malformed at line 3"):
                RunManifest.load(path)

    def test_wrong_version_is_a_campaign_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 999}) + "\n")
        with pytest.raises(CampaignError, match="version"):
            RunManifest.load(path)

    def test_killed_then_resumed_matches_uninterrupted(self, tmp_path):
        """The acceptance criterion: kill mid-campaign, resume, compare."""

        def make_tasks(kill_on_c):
            state = {"killed": False}

            def c():
                if kill_on_c and not state["killed"]:
                    state["killed"] = True
                    raise KeyboardInterrupt
                return {"passed": True, "checks": {"c-ok": True}}

            return [
                ("a", lambda: {"passed": True, "checks": {"a-ok": True}}),
                ("b", lambda: {"passed": False, "checks": {"b-ok": False}}),
                ("c", c),
                ("d", lambda: {"passed": True, "checks": {"d-ok": True}}),
            ]

        def payload(result):
            if isinstance(result, dict) and "checks" in result:
                return {"passed": result["passed"], "checks": result["checks"]}
            return None

        # Uninterrupted reference run.
        ref_path = tmp_path / "ref.json"
        CampaignRunner(
            manifest_path=ref_path,
            retry=RetryPolicy(max_attempts=1),
            payload_of=payload,
        ).run(make_tasks(kill_on_c=False))

        # Killed at task 'c', then resumed to completion.
        path = tmp_path / "m.json"
        tasks = make_tasks(kill_on_c=True)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(
                manifest_path=path,
                retry=RetryPolicy(max_attempts=1),
                payload_of=payload,
            ).run(tasks)
        partial = RunManifest.load(path)
        assert partial.is_done("a")
        assert "c" not in partial.tasks or not partial.is_done("c")

        resumed = CampaignRunner(
            manifest_path=path,
            retry=RetryPolicy(max_attempts=1),
            payload_of=payload,
        ).run(tasks)
        # 'b' completed before the kill (its checks failing is a result,
        # not a crash), so only 'c' and 'd' actually run on resume.
        assert [o.status for o in resumed.outcomes] == [
            "skipped",
            "skipped",
            "done",
            "done",
        ]
        assert (
            RunManifest.load(path).results()
            == RunManifest.load(ref_path).results()
        )


class TestManifestDurability:
    def test_save_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "m.json"
        CampaignRunner(manifest_path=path).run([("a", lambda: 1)])
        assert path.exists()
        assert not (tmp_path / "m.json.tmp").exists()

    def test_load_drops_torn_tail_of_a_lone_header(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"vers')
        manifest = RunManifest.load(path)
        assert manifest.tasks == {}
        assert path.read_bytes() == b""
        # The next record starts the journal afresh, header first.
        manifest.record("a", {"status": "done"})
        assert RunManifest.load(path).is_done("a")

    def test_load_drops_torn_tail_next_to_real_records(self, tmp_path):
        path = tmp_path / "m.json"
        CampaignRunner(manifest_path=path).run([("a", lambda: 1)])
        complete = path.read_bytes()
        with open(path, "a") as handle:
            handle.write('{"name": "b", "entry": {"sta')
        manifest = RunManifest.load(path)
        assert manifest.is_done("a") and manifest.entry("b") is None
        assert path.read_bytes() == complete
        CampaignRunner(manifest_path=path).run(
            [("a", lambda: 1), ("b", lambda: 2)]
        )
        assert RunManifest.load(path).is_done("b")


class TestTimeoutUnenforceable:
    def test_off_main_thread_warns_once_and_flags_entries(self, tmp_path):
        import threading
        import warnings

        path = tmp_path / "m.json"
        captured = []

        def work():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                runner = CampaignRunner(manifest_path=path, timeout=5.0)
                runner.run([("a", lambda: 1), ("b", lambda: 2)])
                captured.extend(caught)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        loud = [w for w in captured if issubclass(w.category, RuntimeWarning)]
        # One loud warning per runner, not one per task.
        assert len(loud) == 1
        assert "cannot be enforced" in str(loud[0].message)
        manifest = RunManifest.load(path)
        assert manifest.tasks["a"]["timeout_enforced"] is False
        assert manifest.tasks["b"]["timeout_enforced"] is False
        # The tasks still ran (untimed) to completion.
        assert manifest.is_done("a") and manifest.is_done("b")

    def test_main_thread_entries_carry_no_flag(self, tmp_path):
        path = tmp_path / "m.json"
        CampaignRunner(manifest_path=path, timeout=5.0).run([("a", lambda: 1)])
        assert "timeout_enforced" not in RunManifest.load(path).tasks["a"]

    def test_no_timeout_means_no_warning_off_main_thread(self, tmp_path):
        import threading
        import warnings

        captured = []

        def work():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                CampaignRunner(manifest_path=tmp_path / "m.json").run(
                    [("a", lambda: 1)]
                )
                captured.extend(caught)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert not [
            w for w in captured if issubclass(w.category, RuntimeWarning)
        ]


class TestParallelKeyboardInterrupt:
    def test_parallel_interrupt_saves_manifest_and_resumes(
        self, tmp_path, monkeypatch
    ):
        from repro.sim import parallel as parallel_mod
        from repro.sim.parallel import PoolResult

        tasks = [(f"t{i}", lambda i=i: {"value": i}) for i in range(4)]
        ref_path = tmp_path / "ref.json"
        CampaignRunner(manifest_path=ref_path).run(tasks)

        # A pool that delivers one completion, then takes the interrupt
        # in the parent (workers never propagate KeyboardInterrupt —
        # the pool ships it back as a quarantined error instead).
        def interrupted_run(self, pool_tasks, on_result):
            name, thunk = pool_tasks[0]
            on_result(
                PoolResult(
                    index=0,
                    name=name,
                    status="done",
                    value=thunk(),
                    attempts=1,
                    elapsed_seconds=0.0,
                )
            )
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel_mod, "parallel_available", lambda: True)
        monkeypatch.setattr(parallel_mod.TaskPool, "run", interrupted_run)
        path = tmp_path / "m.json"
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(manifest_path=path, jobs=2).run(tasks)

        # The manifest is loadable and holds exactly the finished task.
        partial = RunManifest.load(path)
        assert partial.is_done("t0")
        assert not partial.is_done("t3")

        # Resuming (serially, to keep the pool out of it) completes the
        # campaign with results identical to the uninterrupted run.
        monkeypatch.undo()
        resumed = CampaignRunner(manifest_path=path).run(tasks)
        assert [o.status for o in resumed.outcomes] == [
            "skipped",
            "done",
            "done",
            "done",
        ]
        assert (
            RunManifest.load(path).results()
            == RunManifest.load(ref_path).results()
        )


class TestRobustSweep:
    CONFIG = small_config(num_cores=2)

    @staticmethod
    def trace_factory(seed):
        workload = SyntheticWorkloadConfig(
            num_requests=20, address_range_size=512, seed=seed
        )
        return generate_disjoint_workload(workload, [0, 1])

    def test_matches_plain_sweep_when_healthy(self):
        seeds = [1, 2, 3]
        plain = sweep_seeds(self.CONFIG, self.trace_factory, seeds)
        robust = sweep_seeds_robust(self.CONFIG, self.trace_factory, seeds)
        assert robust.complete
        assert robust.result.seeds == plain.seeds
        assert robust.result.observed_wcls == plain.observed_wcls
        assert robust.result.makespans == plain.makespans

    def test_failing_seed_is_quarantined_not_fatal(self):
        def check(report):
            # Seed-independent state makes seed 2 fail deterministically.
            assert report.makespan != report.makespan or True

        def picky_check(report):
            raise AssertionError("bound violated")

        def selective_factory(seed):
            if seed == 2:
                raise SimulationError("seed 2 workload is broken")
            return self.trace_factory(seed)

        robust = sweep_seeds_robust(
            self.CONFIG, selective_factory, [1, 2, 3]
        )
        assert robust.quarantined_seeds == (2,)
        assert robust.completed_seeds == (1, 3)
        assert not robust.complete
        assert robust.result is not None
        assert len(robust.result.observed_wcls) == 2

    def test_all_seeds_failing_yields_no_result(self):
        def bad_factory(seed):
            raise SimulationError("nothing works")

        robust = sweep_seeds_robust(self.CONFIG, bad_factory, [1, 2])
        assert robust.result is None
        assert robust.quarantined_seeds == (1, 2)


class TestRunAllRobust:
    @staticmethod
    def fake_steps(num_requests=300, tightness_repeats=25, **kwargs):
        class FakeArtifact:
            def __init__(self, name, passed):
                self.name = name
                self.table = f"table of {name}"
                self.checks = {"ok": passed}
                self.passed = passed

        return [
            ("alpha", lambda: FakeArtifact("alpha", True)),
            ("beta", lambda: FakeArtifact("beta", False)),
        ]

    def test_writes_artifacts_manifest_and_summary(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod, "artifact_steps", self.fake_steps)
        out = tmp_path / "results"
        lines = []
        result = run_all_robust(out_dir=out, progress=lines.append)
        assert (out / "alpha.txt").read_text() == "table of alpha\n"
        assert (out / "manifest.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {"alpha": {"ok": True}, "beta": {"ok": False}}
        assert "PASS  alpha" in (out / "SUMMARY.txt").read_text()
        assert "FAIL  beta" in (out / "SUMMARY.txt").read_text()
        # beta completed but its checks failed: the campaign is not ok,
        # and neither the progress lines nor the summary call it a PASS.
        assert not result.quarantined
        assert not result.all_ok
        assert lines == ["alpha: PASS", "beta: FAIL"]
        assert result.summary().splitlines() == ["PASS        alpha", "FAIL        beta"]

    def test_failed_checks_are_labelled_fail_in_parallel(self, tmp_path):
        lines = []
        runner = CampaignRunner(
            manifest_path=tmp_path / "m.json",
            payload_of=lambda passed: {"passed": passed},
            jobs=2,
        )
        result = runner.run(
            [("good", lambda: True), ("bad", lambda: False)], progress=lines.append
        )
        assert sorted(lines) == ["bad: FAIL", "good: PASS"]
        assert result.summary().splitlines() == ["PASS        good", "FAIL        bad"]

    def test_cli_all_exit_codes(self, tmp_path, monkeypatch, capsys):
        import repro.experiments.runner as runner_mod
        from repro.cli import main

        monkeypatch.setattr(runner_mod, "artifact_steps", self.fake_steps)
        # A failing artifact check → non-zero.
        assert main(["all", "--out", str(tmp_path / "r1")]) == 1

        def green_steps(num_requests=300, tightness_repeats=25, **kwargs):
            return [self.fake_steps()[0]]

        monkeypatch.setattr(runner_mod, "artifact_steps", green_steps)
        assert main(["all", "--out", str(tmp_path / "r2")]) == 0

        def crashing_steps(num_requests=300, tightness_repeats=25, **kwargs):
            def crash():
                raise RuntimeError("artifact exploded")

            return [("boom", crash)]

        # A quarantined artifact → non-zero, with an error on stderr.
        monkeypatch.setattr(runner_mod, "artifact_steps", crashing_steps)
        assert main(["all", "--out", str(tmp_path / "r3")]) == 1
        assert "quarantined" in capsys.readouterr().err

    def test_cli_all_resume_skips_done_artifacts(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod
        from repro.cli import main

        calls = []

        def counting_steps(num_requests=300, tightness_repeats=25, **kwargs):
            class FakeArtifact:
                name = "alpha"
                table = "t"
                checks = {"ok": True}
                passed = True

            def build():
                calls.append(1)
                return FakeArtifact()

            return [("alpha", build)]

        monkeypatch.setattr(runner_mod, "artifact_steps", counting_steps)
        out = str(tmp_path / "r")
        assert main(["all", "--out", out]) == 0
        assert main(["all", "--out", out]) == 0
        assert len(calls) == 1  # second invocation resumed
        assert main(["all", "--out", out, "--no-resume"]) == 0
        assert len(calls) == 2
