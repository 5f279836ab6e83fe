"""Run fermatq command lines in one process, optionally with spans.

    PYTHONPATH=src python3 perfbench/inproc.py --traced 1 --spans-out PATH < argv.json

stdin holds a JSON list of argv lists.  Each runs through
`fermatq.cli.main(argv)` with stdout and stderr captured.  With
`--traced 1`, every function in TRACED is wrapped, and rebound in every
`fermatq.*` module that holds it (a `from .x import y` copy would
otherwise escape its span).  Spans stay in memory and go to the CSV file
at the end.  stdout gets one JSON object: per-call exit code, wall time
and report, plus per-function calls, self time and counters.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time
from array import array

TRACED = {
    "arith": ("odd_prime", "smallest_prime_factors", "factorize", "is_primitive_root", "primes_up_to"),
    "quotients": ("quotient_table", "value_histogram", "write_table", "fermat_quotient"),
    "charsums": ("spectrum_from_histogram", "max_exp_sum", "discrete_log_table"),
    "sieve": ("theorem1_average", "large_sieve_lhs", "rho_coefficient"),
    "subgroups": ("count_ratios", "pth_power_residues"),
    "primroots": (
        "smallest_primroot_quotient",
        "theorem4_exponent_scan",
        "smallest_dth_nonresidue_quotient",
        "first_occurrence_set",
        "double_char_sum",
    ),
    "report": ("emit",),
    "cli": ("main",),
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Work counted at the span boundary, from the call's arguments or result.
COUNTERS = {
    "quotients.quotient_table": ("entries", lambda a, k, r: _arg(a, k, 1, "n")),
    "charsums.spectrum_from_histogram": ("points", lambda a, k, r: len(_arg(a, k, 0, "hist").counts)),
    "quotients.write_table": ("bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))),
    "subgroups.count_ratios": ("products", lambda a, k, r: _arg(a, k, 1, "group").t * _arg(a, k, 2, "z")),
}


class Tracer:
    """Spans in flat arrays: name index, parent span, request, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name, self.span_parent, self.span_request = array("i"), array("i"), array("i")
        self.start, self.end = array("q"), array("q")
        self.stack: list[int] = []
        self.request = 0
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        if counter:
            self.counters[f"{name}.{counter[0]}"] = 0
        if name == "report.emit":
            self.counters["report.emit.bytes"] = 0
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.span_name.append(name_id)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_request.append(self.request)
            self.start.append(0)
            self.end.append(0)
            self.stack.append(span)
            before = sys.stdout.tell() if name == "report.emit" else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[span], self.end[span] = t0, t1
            if counter:
                self.counters[f"{name}.{counter[0]}"] += counter[1](args, kwargs, result)
            if name == "report.emit":
                self.counters["report.emit.bytes"] += sys.stdout.tell() - before
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "fermatq" or n.startswith("fermatq.")]
        for mod_name, functions in TRACED.items():
            home = importlib.import_module(f"fermatq.{mod_name}")
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def self_times(self) -> array:
        child = array("q", bytes(8 * len(self.start)))
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.end[span] - self.start[span]
        return array("q", (self.end[i] - self.start[i] - child[i] for i in range(len(self.start))))

    def summary(self) -> dict:
        own = self.self_times()
        layers = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        top: dict[int, tuple[int, int]] = {}  # request -> (self ns, name id) of its largest span
        per_request: dict[tuple[int, int], int] = {}
        for i, name_id in enumerate(self.span_name):
            entry = layers[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += own[i] / 1e9
            key = (self.span_request[i], name_id)
            per_request[key] = per_request.get(key, 0) + own[i]
        for (request, name_id), ns in per_request.items():
            if ns > top.get(request, (-1, 0))[0]:
                top[request] = (ns, name_id)
        return {
            "layers": layers,
            "counters": self.counters,
            "top_self": {str(r): [self.names[n], ns / 1e9] for r, (ns, n) in sorted(top.items())},
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("request,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.span_request[i]},{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans-out", default=None)
    opts = parser.parse_args()
    argvs = json.load(sys.stdin)

    import fermatq.cli

    tracer = Tracer()
    if opts.traced:
        tracer.install()
    calls = []
    started = time.perf_counter()
    for request, argv in enumerate(argvs):
        tracer.request = request
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fermatq.cli.main(argv)
        calls.append({"rc": rc, "wall_s": time.perf_counter() - t0, "out": out.getvalue(), "err": err.getvalue()[-500:]})
    result = {"calls": calls, "wall_s": time.perf_counter() - started}
    if opts.traced:
        result.update(tracer.summary())
        if opts.spans_out:
            tracer.write_spans(opts.spans_out)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
