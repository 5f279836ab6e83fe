"""fermatq benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload table-bulk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With `--trace 0` it times whole
`fermatq` invocations as child processes, one at a time, and prints the
end-to-end metrics.  With `--trace 1` it runs the same invocations in
process through `fermatq.cli.main`, once plain and once with spans
around each module's public functions, and prints the per-layer metrics.
Every report is checked (checks.py); the last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  Metric names
and units come from BENCHMARK.json.  `--workload all` runs the four
workloads in turn.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_dump, check_report, load_reference, sha256
from workloads import WORKLOADS, Call, seeded_calls

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_MIN = 8
CALL_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # calls still pending after this count as timed out
SAMPLE_LIMIT = 10  # tail percentiles need this many samples beyond them


@dataclass
class Outcome:
    call: Call
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    out: bytes = b""
    problems: list[str] = field(default_factory=list)


class Runner:
    """Runs fermatq child processes and counts attempted and failed calls."""

    def __init__(self, seed: int, workdir: Path, reference: dict[str, str]):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.reference = reference
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        env = {k: v for k, v in os.environ.items() if not k.startswith("FERMATQ_")}
        self.env = dict(env, PYTHONPATH=str(SRC))

    def spawn(self, cmd: list[str], stdin: bytes = b"") -> tuple[float, int, object, bytes, bytes, bool]:
        """Run one child to completion or timeout: (wall, status, rusage, out, err, timed_out)."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        timeout = min(CALL_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return 0.0, -1, None, b"", b"", True
        killed = threading.Event()
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd,
                stdin=subprocess.PIPE,
                stdout=out,
                stderr=err,
                env=self.env,
                cwd=ROOT,
                start_new_session=True,  # its own process group, so a kill reaches pool workers
            )
            timer = threading.Timer(timeout, lambda: (killed.set(), os.killpg(proc.pid, signal.SIGKILL)))
            timer.start()
            try:
                proc.stdin.write(stdin)
                proc.stdin.close()
            except BrokenPipeError:
                pass
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            if killed.is_set():
                _await_group_exit(proc.pid)
            out.seek(0)
            err.seek(0)
            return wall, proc.returncode, usage, out.read(), err.read(), killed.is_set()

    def fermatq(self, call: Call) -> Outcome:
        cmd = [sys.executable, "-m", "fermatq.cli", *call.args, "--threads", str(call.threads)]
        if call.dump:
            cmd += ["--dump", str(self.dump_path(call))]
        wall, rc, usage, out, err, timed_out = self.spawn(cmd)
        outcome = Outcome(call, wall, out=out)
        if usage is not None:
            outcome.cpu_s = usage.ru_utime + usage.ru_stime
            outcome.maxrss_kb = usage.ru_maxrss
        if timed_out:
            outcome.problems.append("timed out")
        elif rc != 0:
            outcome.problems.append(f"exit code {rc}: {err.decode(errors='replace')[-300:]}")
        return outcome

    def dump_path(self, call: Call) -> Path:
        return self.workdir / f"dump-{sha256(call.label.encode())[:12]}.fqt"

    def check(self, outcome: Outcome) -> None:
        """Check one call's report (and dump), and count it."""
        call = outcome.call
        if not outcome.problems:
            try:
                outcome.problems += check_report(call, outcome.out, self.reference, self.rng)
                if call.dump:
                    outcome.problems += check_dump(call, self.dump_path(call).read_bytes(), self.reference, self.rng)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                outcome.problems.append(f"report could not be checked: {exc!r}")
        self.count(outcome)

    def count(self, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            self.failures.append(f"{outcome.call.label}: {'; '.join(outcome.problems)}")


def _await_group_exit(pgid: int, limit_s: float = 5.0) -> None:
    """Wait until no process of a killed group is left, up to a limit."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _compare_threads(outcomes: list[Outcome]) -> None:
    """A --threads 2 report must equal the --threads 1 report of the same call."""
    single = {o.call.key: o.out for o in outcomes if o.call.threads == 1}
    for o in outcomes:
        if o.call.threads > 1 and not o.problems and o.out != single.get(o.call.key):
            o.problems.append("--threads 2 bytes differ from --threads 1")


def measure_setup(runner: Runner) -> float:
    """Wall time to start the interpreter and import fermatq.cli."""
    wall, rc, _, _, err, timed_out = runner.spawn([sys.executable, "-c", "import fermatq.cli"])
    if rc != 0 or timed_out:
        raise RuntimeError(f"cannot import fermatq.cli: {err.decode(errors='replace')[-300:]}")
    return wall


def run_pass(runner: Runner, calls: list[Call]) -> dict:
    order = list(calls)
    runner.rng.shuffle(order)
    outcomes = [runner.fermatq(call) for call in order]
    _compare_threads(outcomes)
    for o in outcomes:
        runner.check(o)
    single = [o for o in outcomes if o.call.threads == 1]
    return {
        "wall_s": sum(o.wall_s for o in single),
        "wall_t2_s": sum(o.wall_s for o in outcomes if o.call.threads > 1),
        "cpu_s": sum(o.cpu_s for o in single),
        "peak_rss_mb": max(o.maxrss_kb for o in outcomes) / 1024,
        "calls": [(o.call.label, o.wall_s) for o in outcomes],
    }


def _keep_going(started: float, durations: list[float], seconds: float, runner: Runner) -> bool:
    """Start another repetition only if a typical one ends within the run."""
    elapsed = time.monotonic() - started
    typical = statistics.median(durations)
    return elapsed + typical <= seconds and time.monotonic() + typical < runner.deadline


def end_to_end(runner: Runner, calls: list[Call], seconds: float) -> tuple[dict, dict]:
    measure_setup(runner)  # warm-up: writes the bytecode caches
    setup, passes, durations = [], [], []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        setup.append(measure_setup(runner))  # one per pass, so the samples span the run
        passes.append(run_pass(runner, calls))
        durations.append(time.monotonic() - t0)
        if not _keep_going(started, durations, seconds, runner):
            break
    setup += [measure_setup(runner) for _ in range(SETUP_MIN - len(setup))]
    samples = {"setup_s": setup}
    for key in ("wall_s", "wall_t2_s", "cpu_s", "peak_rss_mb"):
        samples[key] = [p[key] for p in passes]
    metrics = {key: statistics.median(values) for key, values in samples.items()}
    single = [c for c in calls if c.threads == 1]
    metrics["calls_per_s"] = len(single) / metrics["wall_s"]
    metrics["primes_per_s"] = sum(c.primes for c in single) / metrics["wall_s"]
    metrics["entries_per_s"] = sum(c.entries for c in single) / metrics["wall_s"]
    detail = {"samples": samples, "passes": [p["calls"] for p in passes]}
    return metrics, detail


def _inproc(runner: Runner, calls: list[Call], traced: bool, spans_out: Path) -> dict:
    """Run the calls through inproc.py in one fresh process; {} if it failed."""
    argvs = [[*c.args, "--threads", "1"] + (["--dump", str(runner.dump_path(c))] if c.dump else []) for c in calls]
    cmd = [sys.executable, str(Path(__file__).with_name("inproc.py")), "--traced", str(int(traced))]
    if traced:
        cmd += ["--spans-out", str(spans_out)]
    _, rc, _, out, err, timed_out = runner.spawn(cmd, json.dumps(argvs).encode())
    if timed_out or rc != 0:
        problem = "timed out" if timed_out else f"in-process run failed: {err.decode(errors='replace')[-300:]}"
        for call in calls:
            runner.count(Outcome(call, problems=[problem]))
        return {}
    result = json.loads(out)
    for call, res in zip(calls, result["calls"]):
        o = Outcome(call, res["wall_s"], out=res["out"].encode())
        if res["rc"] != 0:
            o.problems.append(f"exit code {res['rc']}: {res['err']}")
        runner.check(o)
    return result


def layer_metrics(traced: dict, plain_wall: float) -> dict:
    """Per-function calls and self time, module self time, counters and rates."""
    metrics: dict[str, float] = dict(traced["counters"])
    for name, layer in traced["layers"].items():
        metrics[f"{name}.calls"] = layer["calls"]
        metrics[f"{name}.self_s"] = layer["self_s"]
        module = f"{name.split('.')[0]}.self_s"
        metrics[module] = metrics.get(module, 0.0) + layer["self_s"]

    def ratio(num: str, den: str) -> float:
        return metrics[num] / metrics[den] if metrics[den] else 0.0

    metrics["quotients.quotient_table.entries_per_s"] = ratio(
        "quotients.quotient_table.entries", "quotients.quotient_table.self_s"
    )
    metrics["subgroups.count_ratios.products_per_s"] = ratio(
        "subgroups.count_ratios.products", "subgroups.count_ratios.self_s"
    )
    metrics["charsums.spectrum_from_histogram.s_per_mpoint"] = 1e6 * ratio(
        "charsums.spectrum_from_histogram.self_s", "charsums.spectrum_from_histogram.points"
    )
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain_wall - 1
    return metrics


def per_layer(runner: Runner, calls: list[Call], seconds: float, spans_out: Path) -> tuple[dict, dict]:
    # Pool overhead: each --threads 2 call against its --threads 1 twin, as child processes.
    wall_overhead = cpu_overhead = 0.0
    for parallel in (c for c in calls if c.threads > 1):
        twin = next(c for c in calls if c.threads == 1 and c.key == parallel.key)
        pair = [runner.fermatq(parallel), runner.fermatq(twin)]
        _compare_threads(pair)
        for o in pair:
            runner.check(o)
        wall_overhead += pair[0].wall_s - pair[1].wall_s / 2
        cpu_overhead += pair[0].cpu_s - pair[1].cpu_s
    single = [c for c in calls if c.threads == 1]
    rounds, durations = [], []
    top_self: dict[str, list[tuple[str, float]]] = {}
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        plain = _inproc(runner, single, False, spans_out)
        traced = _inproc(runner, single, True, spans_out)
        durations.append(time.monotonic() - t0)
        if plain and traced:
            rounds.append(layer_metrics(traced, plain["wall_s"]))
            for request, (name, self_s) in traced["top_self"].items():
                top_self.setdefault(single[int(request)].label, []).append((name, self_s))
        if not _keep_going(started, durations, seconds, runner):
            break
    metrics = {key: statistics.median_low(r[key] for r in rounds) for key in rounds[0]} if rounds else {}
    metrics["pool.wall_overhead_s"] = wall_overhead
    metrics["pool.cpu_overhead_s"] = cpu_overhead
    return metrics, {"rounds": len(rounds), "top_self": top_self, "spans": str(spans_out.relative_to(ROOT))}


def host_record() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
    }


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_per_mpoint", "s/Mpoint"), ("_s", "s"), ("_mb", "MB"), ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    return "bytes" if name.endswith(".bytes") else "count"


def percentile_label(samples: list[float]) -> str:
    """Median, and the highest percentile with SAMPLE_LIMIT samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g}"
    if n >= 2 * SAMPLE_LIMIT:
        pct = math.floor(100 * (1 - SAMPLE_LIMIT / n))
        text += f", p{pct} {sorted(samples)[math.ceil(pct / 100 * n) - 1]:.6g}"
    return text + f", n={n}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, host: dict) -> dict:
    calls = seeded_calls(workload, random.Random(seed))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(seed, workdir, load_reference())
        if trace:
            metrics, detail = per_layer(runner, calls, seconds, OUT_DIR / f"spans-{workload}.csv")
            wanted = spec["per_layer"]
        else:
            metrics, detail = end_to_end(runner, calls, seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {workload}: seed {seed}, {runner.attempted} calls attempted, {runner.failed} failed")
    for line in runner.failures:
        print(f"  FAILED {line}")
    print(f"  failed_frac {runner.failed / max(runner.attempted, 1):.6g}")
    for name, value in sorted(metrics.items()):
        samples = detail.get("samples", {}).get(name)
        note = f"  ({percentile_label(samples)})" if samples else ""
        print(f"  {name} {value:.6g} {unit_of(name)}{note}")
    for label, spans in detail.get("top_self", {}).items():
        name = statistics.mode(n for n, _ in spans)
        times = [t for n, t in spans if n == name]
        print(f"  largest self time in `{label}`: {name} in {len(times)} of {len(spans)} rounds, median {statistics.median(times):.4g} s")
    result = {
        "correct": runner.failed == 0 and all(m["name"] in metrics for m in wanted),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in metrics
        },
    }
    record = {"workload": workload, "seed": seed, "trace": trace, "host": host, "result": result, "detail": detail}
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args()
    if not (SRC / "fermatq" / "cli.py").is_file():
        print(f"fermatq sources not found under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    host = host_record()
    print(f"host {json.dumps(host)}")
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = {w: run_workload(w, opts.seed, opts.seconds, bool(opts.trace), spec, host) for w in names}
    if len(results) == 1:
        print(json.dumps(results[opts.workload]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
