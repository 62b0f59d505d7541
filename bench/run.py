"""fuzzaut benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload default-matrix --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout that holds ``src/fuzzaut``; nothing is
installed.  Workloads (see ``bench/DESIGN.md`` for why each was chosen):

* ``default-matrix``: ``run_campaign(default_campaign())``, 504 law rows.
* ``s4-hom``: S4 x {chain, class} x six homomorphism-heavy statements, 12 rows.
* ``cli-files``: one client running ``python -m fuzzaut.cli`` processes one
  after another over inputs generated from ``--seed`` (closed loop).

Every pass of an in-process workload and every CLI invocation runs in a
fresh interpreter, started from this single process with no worker threads;
``FUZZAUT_THREADS`` is removed from the children's environment.  The process
pins itself and its children to one CPU and probes that CPU's speed while a
child runs (``pace.py``), so every time is reported in reference seconds.  Each output
is checked: law rows must pass and match the report recorded in
``bench/expected/`` byte for byte, and CLI exit codes, JSON and witnesses are
re-checked (``cli_inputs.py``).

With ``--trace 0`` the last stdout line carries the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the ``per_layer`` metrics
from passes run under the span tracer (``spans.py``), next to untraced passes
that give the tracing overhead.  A readable summary with the environment goes
to stderr, and the full record to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from pace import Pacer, pin_to_one_cpu

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

IN_PROCESS = ("default-matrix", "s4-hom")
WORKLOADS = IN_PROCESS + ("cli-files",)
MIN_PASSES = 2  # untraced passes (in-process) or rounds (cli-files) per run
SETUP_PROBES = 3  # extra fresh-interpreter set-ups per pass or round
HARD_LIMIT_S = 165  # a run must end within 180 s even if a child hangs


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float  # raw wall time
    ref_s: float  # wall time less the CPU probes, in reference seconds (pace.py)
    maxrss_mib: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for key in ("FUZZAUT_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "PYTHONHOME"):
        env.pop(key, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def run_child(argv: list[str], env: dict[str, str], deadline: float, pacer: Pacer) -> Child:
    """Run one process to completion while ``pacer`` probes the CPU.

    Peak RSS comes from wait4.  A child still running at ``deadline`` (a
    perf_counter reading) is killed and exits with -9.
    """
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        pacer.start()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env)
        status, usage = pacer.wait(proc.pid, deadline)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        end - start,
        pacer.reference_s(start, end),
        usage.ru_maxrss / 1024,
    )


def bad_rows(report: bytes, expected: bytes) -> tuple[int, int]:
    """(rows, rows that fail or differ from the reference); 1 bad if only the framing differs."""
    got = json.loads(report)["results"]
    want = json.loads(expected)["results"]
    bad = sum(
        1 for i, row in enumerate(got) if not row["verdict"] or i >= len(want) or row != want[i]
    )
    bad += max(0, len(want) - len(got))
    if bad == 0 and report != expected:
        bad = 1
    return max(len(got), len(want)), bad


def tail(samples: list[float], fewest: int) -> float:
    """The highest percentile that keeps 10 samples beyond it in the smallest run.

    The level is fixed from ``fewest``, the sample count of the shortest run
    this benchmark makes, so runs that fit in one more round report the same
    percentile.  With fewer than 11 samples no percentile qualifies; the
    median is reported then, because the slowest of a few passes mostly
    measures the machine's noise.
    """
    ordered = sorted(samples)
    if fewest < 11:
        return statistics.median(ordered)
    level = 1 - 10 / fewest
    return ordered[math.ceil(level * len(ordered)) - 1]


class Run:
    """State of one benchmark run: timing budget, samples and the output checks."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.env = child_env()
        self.pacer = Pacer()
        self.deadline = time.perf_counter() + seconds
        self.hard_stop = time.perf_counter() + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.layers: list[dict[str, float]] = []
        self.fewest_invocations = MIN_PASSES

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        if not self.samples.get(name):
            raise BenchError(f"no {name} measured: {'; '.join(self.problems) or 'no pass completed'}")
        return statistics.median(self.samples[name])

    def outcome(self, ok_count: int, attempted: int, problem: str | None) -> None:
        self.attempted += attempted
        self.failed += attempted - ok_count
        if problem and len(self.problems) < 20:
            self.problems.append(problem)

    def repeat(self, cycle) -> None:
        """Run ``cycle`` while the next one should end inside the time budget.

        An untraced run makes at least ``MIN_PASSES`` cycles, a traced run one.
        """
        minimum = 1 if self.trace else MIN_PASSES
        durations: list[float] = []
        while True:
            start = time.perf_counter()
            cycle()
            durations.append(time.perf_counter() - start)
            if len(durations) >= minimum and time.perf_counter() + statistics.median(durations) > self.deadline:
                return

    def child(self, *args: str) -> Child:
        """Run the interpreter that runs this benchmark, with the pinned environment."""
        return run_child([sys.executable, *args], self.env, self.hard_stop, self.pacer)

    def startup_probe(self) -> None:
        """Fresh interpreter completing ``import fuzzaut.cli``."""
        child = self.child("-c", "import fuzzaut.cli")
        if child.code != 0:
            raise BenchError(f"cannot import fuzzaut.cli: {child.stderr.strip()[-300:]}")
        self.add("startup_s", child.ref_s)

    # -- in-process workloads ----------------------------------------------------

    def worker(self, mode: str, traced: bool = False) -> tuple[Child, dict | None]:
        out, report = WORK / "pass.json", WORK / "report.json"
        out.unlink(missing_ok=True)
        report.unlink(missing_ok=True)
        args = [str(BENCH / "worker.py"), "--workload", self.workload, "--mode", mode, "--out", str(out)]
        if mode == "run":
            args += ["--report", str(report)]
        if traced:
            args += ["--trace", "--spans", str(WORK / "trace" / f"{self.workload}.spans.tsv")]
        child = self.child(*args)
        if child.code != 0 or not out.exists():
            return child, None
        return child, json.loads(out.read_text(encoding="utf-8"))

    def setup_probe(self) -> None:
        child, data = self.worker("setup")
        if data is None:
            self.outcome(0, 1, f"set-up failed: {child.stderr.strip()[-300:]}")
        else:
            self.add("setup_s", self.pacer.reference_s(*data["setup"]))

    def in_process_pass(self, traced: bool, expected: bytes) -> None:
        child, data = self.worker("run", traced)
        if data is None:
            rows = len(json.loads(expected)["results"])
            self.outcome(0, rows, f"pass exited {child.code}: {child.stderr.strip()[-300:]}")
            return
        rows, failed = bad_rows((WORK / "report.json").read_bytes(), expected)
        self.outcome(rows - failed, rows,
                     f"{failed} rows fail or differ from bench/expected" if failed else None)
        run_s = self.pacer.reference_s(*data["run"])
        if traced:
            self.add("traced_run_s", run_s)
            self.layers.append(data["layers"])
            return
        self.add("setup_s", self.pacer.reference_s(*data["setup"]))
        self.add("run_s", run_s)
        self.add("raw_run_s", data["run"][1] - data["run"][0])
        self.add("invocation_ms", child.ref_s * 1000)
        self.add("peak_rss_mib", child.maxrss_mib)

    def run_in_process(self) -> None:
        expected = (BENCH / "expected" / f"{self.workload}.json").read_bytes()

        def cycle() -> None:
            for _ in range(SETUP_PROBES):
                if self.trace:
                    self.startup_probe()
                else:
                    self.setup_probe()
            self.in_process_pass(False, expected)
            if self.trace:
                self.in_process_pass(True, expected)

        self.repeat(cycle)

    # -- cli-files -----------------------------------------------------------------

    def cli_round(self, invocations, traced: bool) -> None:
        layers: dict[str, float] = {}
        round_s = raw_s = 0.0
        round_rss = 0.0
        for k, inv in enumerate(invocations):
            if traced:
                layer_path = WORK / "trace" / "cli-layers.json"
                spans = WORK / "trace" / "cli-files" / f"{k:02d}-{inv.label}.spans.tsv"
                child = self.child(str(BENCH / "cli_trace.py"), str(layer_path), str(spans), *inv.args)
            else:
                child = self.child("-m", "fuzzaut.cli", *inv.args)
            if child.code != inv.expected_exit:
                problem = f"exit {child.code}, expected {inv.expected_exit}: {child.stderr.strip()[-300:]}"
            else:
                problem = inv.check(child.stdout, child.stderr)
            self.outcome(0 if problem else 1, 1, f"{inv.label}: {problem}" if problem else None)
            round_s += child.ref_s
            round_rss = max(round_rss, child.maxrss_mib)
            if traced:
                if layer_path.exists():
                    for key, value in json.loads(layer_path.read_text(encoding="utf-8")).items():
                        layers[key] = layers.get(key, 0) + value
                    layer_path.unlink()
            else:
                self.add("invocation_ms", child.ref_s * 1000)
                raw_s += child.wall_s
        if traced:
            self.add("traced_run_s", round_s)
            self.layers.append(layers)
        else:
            self.add("run_s", round_s)
            self.add("raw_run_s", raw_s)
            self.add("peak_rss_mib", round_rss)

    def run_cli(self) -> None:
        import cli_inputs

        invocations = cli_inputs.build(self.seed, WORK / "cli-files")
        self.fewest_invocations = MIN_PASSES * len(invocations)

        def cycle() -> None:
            for _ in range(SETUP_PROBES):
                self.startup_probe()
            self.cli_round(invocations, False)
            if self.trace:
                self.cli_round(invocations, True)

        self.repeat(cycle)
        self.samples["setup_s"] = list(self.samples["startup_s"])

    # -- results -------------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        return {
            "run_s": self.median("run_s"),
            "setup_s": self.median("setup_s"),
            "peak_rss_mib": self.median("peak_rss_mib"),
            "invocation_p50_ms": self.median("invocation_ms"),
            "invocation_tail_ms": tail(self.samples["invocation_ms"], self.fewest_invocations),
        }

    def per_layer(self) -> dict[str, float]:
        if not self.layers:
            raise BenchError(f"no traced pass completed: {'; '.join(self.problems)}")
        out = {}
        for key in self.layers[0]:
            out[key] = statistics.median(layer.get(key, 0) for layer in self.layers)
        calls = out.get("homs.is_fuzzy_homomorphism.calls", 0)
        rejected = out.get("homs.is_fuzzy_homomorphism.rejected", 0)
        out["homs.is_fuzzy_homomorphism.reject_ratio"] = rejected / calls if calls else 0.0
        out["cli.startup_ms"] = self.median("startup_s") * 1000
        out["trace.overhead_s"] = self.median("traced_run_s") - self.median("run_s")
        return out


def environment(cpus_usable: int, cpu: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fuzzaut").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unavailable: git failed"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "pinned_cpu": cpu,
        "loadavg": os.getloadavg(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "FUZZAUT_THREADS": "unset in children (parent had "
        + repr(os.environ.get("FUZZAUT_THREADS")) + ")",
        "load": "one client process, children run one at a time on its CPU, no worker threads",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fuzzaut" / "__init__.py").is_file():
        print(f"error: no fuzzaut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for sub in ("trace/cli-files", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    cpus_usable = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.child("-c", "import fuzzaut.cli")  # compile bytecode before timing
    try:
        if args.workload in IN_PROCESS:
            run.run_in_process()
        else:
            run.run_cli()
        measured = run.per_layer() if args.trace else run.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(cpus_usable, cpu), "problems": run.problems, "samples": run.samples,
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    log = sys.stderr
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}", file=log)
    for key, value in record["environment"].items():
        print(f"  env {key}: {value}", file=log)
    for problem in run.problems:
        print(f"  FAILED {problem}", file=log)
    print(f"  fail_ratio {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}", file=log)
    for key, metric in metrics.items():
        print(f"  {key} {metric['value']:.6g} {metric['unit']}", file=log)
    if "raw_run_s" in run.samples:
        print(f"  (raw wall run_s {run.median('raw_run_s'):.6g} s)", file=log)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
