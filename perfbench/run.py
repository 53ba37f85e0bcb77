"""Run benchmark workloads, check their outputs, print their metrics.

    python3 perfbench/run.py --workload dense-shared --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the workload's pass runs repeatedly for ``--seconds``
(at least three times) with nothing but a report tap installed, and the
end-to-end metrics are printed.  The pass is cut into steps of a few
simulation or case completions, and a fixed reference kernel
(``perfbench/calibration.py``) runs after each step to measure the
host's speed at that moment; ``wall_s`` sums, over the steps, each
step's median host time over the passes, scaled to the kernel's nominal
speed.  ``setup_s`` is scaled the same way.
With ``--trace 1`` it runs one untraced pass and then one pass with
every layer wrapped (``perfbench/tracer.py``), and the per-layer
metrics are printed, including the tracing overhead.

Either way every pass's outputs are digested and checked: against the
digests pinned in ``perfbench/digests.json`` when the run uses the
pinned inputs, and against the run's first pass otherwise.  A failed
check, a failed verdict or a simulation that hit ``max_slots`` makes
the run incorrect and the exit status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric with its unit and sample count, and ``--results
FILE`` writes the same with the host and commit to a JSON file.
``--workload all`` runs the four workloads one after another in this
process, so its ``peak_rss_mb`` is the process's peak so far.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("dense-shared", "sparse-think", "fuzz-campaign", "repro-all")

#: Set-ups per run behind the median ``setup_s``: this process plus
#: fresh child processes, so that each sample includes importing repro.
SETUP_SAMPLES = 9
#: Fewest timed passes behind ``wall_s``.
MIN_PASSES = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", metavar="FILE", help="also write the results here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _scaled_setup_s(setup_s):
    """``setup_s`` scaled to the reference kernel's nominal speed.

    The kernel runs three times right after the set-up; the host time is
    scaled by the median of them, as the timed steps are in ``wall_s``.
    """
    from perfbench.calibration import KERNEL_NOMINAL_S, kernel_time

    kernel = statistics.median(kernel_time() for _ in range(3))
    return setup_s * KERNEL_NOMINAL_S / kernel


def _child_setup_s(name, seed):
    """One ``setup_s`` sample from a fresh interpreter."""
    child = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(seed),
            "--setup-only",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])["setup_s"]


def _commit():
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Gate:
    """Checks each pass's outputs and counts what failed."""

    def __init__(self, pinned):
        self.reference = pinned
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, label, outputs, reports):
        if self.reference is None:
            self.reference = dict(outputs.digests)
        failed = set(outputs.failed)
        for case in sorted(outputs.failed):
            self.problems.append(f"{label}: {case} failed its own check")
        for unit in sorted(set(outputs.digests) | set(self.reference)):
            observed = outputs.digests.get(unit)
            if observed != self.reference.get(unit):
                failed.update(outputs.covers.get(unit, [unit]))
                self.problems.append(
                    f"{label}: digest of {unit} is {observed}, "
                    f"expected {self.reference.get(unit)}"
                )
        for index, report in enumerate(reports):
            if report.timed_out:
                failed.add(f"simulation #{index}")
                self.problems.append(f"{label}: simulation #{index} hit max_slots")
        self.attempted += len(outputs.cases)
        self.failed += min(len(failed), len(outputs.cases))


def _run_pass(workload, index, gate, label, tracer=None, calibrate=False):
    """Run and check one pass.

    Returns the pass's host time, its steps, its outputs and its reports.
    With ``calibrate`` the reference kernel runs after every
    ``workload.marks_per_step`` simulation or case completions and after
    the pass, and each step is a pair (the step's host time, the kernel's
    host time right after it); the kernel's time is not in the pass's.
    Without it the whole pass is one step, with no kernel time.
    """
    from perfbench.calibration import kernel_time
    from perfbench.tracer import ReportTap

    workdir = WORK_DIR / f"{workload.name}-{os.getpid()}" / f"pass-{index}"
    workdir.mkdir(parents=True)
    steps = []
    marks = 0
    step_start = 0.0

    def mark(*_):
        nonlocal marks, step_start
        marks += 1
        if calibrate and marks % workload.marks_per_step == 0:
            step = time.perf_counter() - step_start
            steps.append((step, kernel_time()))
            step_start = time.perf_counter()

    try:
        with ReportTap(mark) as tap:
            if tracer is None:
                step_start = time.perf_counter()
                raw = workload.run_pass(workdir, mark)
                end = time.perf_counter()
            else:
                with tracer:
                    step_start = time.perf_counter()
                    raw = workload.run_pass(workdir, mark)
                    end = time.perf_counter()
        steps.append((end - step_start, kernel_time() if calibrate else None))
        outputs = workload.outputs(raw, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gate.check(label, outputs, tap.reports)
    return sum(step for step, _ in steps), steps, outputs, tap.reports


def _end_to_end(workload, args, gate, own_setup_s):
    """End-to-end metrics; returns (metrics, printed-only metrics)."""
    from perfbench.calibration import KERNEL_NOMINAL_S

    setup = [] if own_setup_s is None else [own_setup_s]
    walls, steps, slots, sim_cycles, wcls, cases = [], [], [], [], [], []
    started = time.perf_counter()
    # Start a pass only if it should end before the deadline, so that a
    # run lasts --seconds whatever the length of the workload's pass.
    while len(walls) < MIN_PASSES or (
        time.perf_counter() - started + statistics.median(walls) <= args.seconds
    ):
        wall, pass_steps, outputs, reports = _run_pass(
            workload, len(walls), gate, f"pass {len(walls)}", calibrate=True
        )
        # Set-up samples are spread over the run, not taken in one burst,
        # so that they meet the host in more of its states.
        if len(setup) < SETUP_SAMPLES:
            setup.append(_child_setup_s(workload.name, workload.seed))
        walls.append(wall)
        steps.append(pass_steps)
        cases.append(len(outputs.cases))
        slots.append(sum(report.total_slots for report in reports))
        sim_cycles.append(sum(report.makespan for report in reports))
        wcls.append(max((report.observed_wcl() for report in reports), default=0))
    while len(setup) < SETUP_SAMPLES:
        setup.append(_child_setup_s(workload.name, workload.seed))
    for name, values in (
        ("steps", [len(pass_steps) for pass_steps in steps]),
        ("cases", cases),
        ("simulated slots", slots),
        ("sim_cycles", sim_cycles),
        ("observed_wcl_cycles", wcls),
    ):
        if len(set(values)) != 1:
            gate.failed = max(gate.failed, 1)
            gate.problems.append(f"{name} differ between passes: {values}")
    # Other tenants of a shared host slow the interpreter by 30-40% for
    # seconds to minutes at a time, so raw pass times wander by 15-40%
    # from run to run.  Each step's host time is therefore scaled by the
    # host's speed measured by the reference kernel right after it, and
    # wall_s sums, over the steps, each step's median scaled time over
    # the run's passes: the pass's host time at the kernel's nominal
    # speed.  A change to the program moves it; the host's load mostly
    # does not.
    scaled = [
        [host * KERNEL_NOMINAL_S / kernel for host, kernel in pass_steps]
        for pass_steps in steps
    ]
    wall = sum(statistics.median(times) for times in zip(*scaled))
    kernels = [kernel for pass_steps in steps for _, kernel in pass_steps]
    passes = len(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (wall, "s", passes),
        "slots_per_s": (slots[0] / wall, "slots/s", passes),
        "cases_per_s": (cases[0] / wall, "cases/s", passes),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1
        ),
        "sim_cycles": (sim_cycles[0], "cycles", passes),
    }
    printed = {
        "observed_wcl_cycles": (wcls[0], "cycles", passes),
        "median_pass_s": (statistics.median(walls), "s", passes),
        "host_speed": (
            KERNEL_NOMINAL_S / statistics.median(kernels), "ratio", len(kernels)
        ),
    }
    return metrics, printed


def _per_layer(workload, gate):
    from perfbench.tracer import Tracer, layer_metrics

    untraced, _, _, _ = _run_pass(workload, 0, gate, "untraced pass")
    tracer = Tracer()
    traced, _, _, reports = _run_pass(workload, 1, gate, "traced pass", tracer)
    metrics = layer_metrics(tracer, reports)
    metrics["trace.overhead_s"] = (traced - untraced, "s", 1)
    return metrics, {}


def _measure(workload, args, own_setup_s):
    """Run one workload; return (gate, pinned digests, metrics, printed)."""
    from perfbench.workloads import pinned_digests

    pins = json.loads((HERE / "digests.json").read_text())
    pinned = pinned_digests(workload.name, args.seed, pins)
    gate = Gate(pinned)
    try:
        if args.trace:
            metrics, printed = _per_layer(workload, gate)
        else:
            metrics, printed = _end_to_end(workload, args, gate, own_setup_s)
    finally:
        shutil.rmtree(WORK_DIR / f"{workload.name}-{os.getpid()}", ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    return gate, pinned, metrics, printed


def _print_run(args, workload, gate, pinned, metrics, printed, host, commit):
    from perfbench.tracer import tail_percentile

    name = workload.name
    print(
        f"# perfbench {name} seed={args.seed} trace={args.trace} "
        f"nproc={host['nproc']} python={host['python']} commit={commit} "
        f"outputs={'pinned' if pinned is not None else 'self-consistent'}"
    )
    for problem in gate.problems:
        print(f"FAIL {name}: {problem}", file=sys.stderr)
    for metric, (value, unit, samples) in {**metrics, **printed}.items():
        note = f"n={samples}"
        if metric == "sim.simulate.ms_tail":
            note += f", p{tail_percentile(samples)}"
        if metric == "wall_s":
            note += " passes; median scaled time of each step, summed"
        print(f"{metric:40} {value:<22} {unit:10} ({note})")
    print(
        f"{'fail_frac':40} {gate.failed / gate.attempted:<22} {'ratio':10} "
        f"({gate.failed} of {gate.attempted} {workload.case_unit} failed)"
    )


def main(argv=None):
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.workloads import WORKLOADS  # imports the program
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        setup_s = time.perf_counter() - _STARTED
        print(json.dumps({"setup_s": _scaled_setup_s(setup_s)}))
        return 0

    host = {"nproc": os.cpu_count(), "python": platform.python_version()}
    commit = _commit()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        workload = WORKLOADS[name](args.seed)
        # Only the first workload's set-up in this process starts at
        # process start; later ones take every sample from children.
        own_setup_s = (
            _scaled_setup_s(time.perf_counter() - _STARTED) if not runs else None
        )
        gate, pinned, metrics, printed = _measure(workload, args, own_setup_s)
        _print_run(args, workload, gate, pinned, metrics, printed, host, commit)
        runs.append((name, gate, metrics, printed))

    attempted = sum(gate.attempted for _, gate, _, _ in runs)
    failed = sum(gate.failed for _, gate, _, _ in runs)
    correct = failed == 0
    if args.results:
        Path(args.results).write_text(
            json.dumps(
                {
                    "seed": args.seed,
                    "trace": args.trace,
                    "host": host,
                    "commit": commit,
                    "correct": correct,
                    "runs": [
                        {
                            "workload": name,
                            "attempted": gate.attempted,
                            "failed": gate.failed,
                            "fail_frac": gate.failed / gate.attempted,
                            "metrics": {
                                metric: {"value": value, "unit": unit, "samples": samples}
                                for metric, (value, unit, samples) in {
                                    **metrics,
                                    **printed,
                                }.items()
                            },
                        }
                        for name, gate, metrics, printed in runs
                    ],
                },
                indent=2,
            )
            + "\n"
        )
    # With one workload the metric names are bare, as BENCHMARK.json
    # lists them; with all four they carry the workload as a prefix.
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    (metric if len(runs) == 1 else f"{name}/{metric}"): {
                        "value": value,
                        "unit": unit,
                    }
                    for name, _, metrics, _ in runs
                    for metric, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
