"""Write reference.json: SHA-256 of every fixed call's report and dump.

    python3 perfbench/pin_reference.py

The digests define correct output for the benchmark, so they are pinned
once, from the commit that introduced the benchmark, and never
regenerated to make a changed output pass.
"""

from __future__ import annotations

import json
import shutil

from checks import REFERENCE_PATH, sha256
from run import OUT_DIR, Runner
from workloads import WORKLOADS


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / "pin"
    workdir.mkdir(exist_ok=True)
    runner = Runner(0, workdir, {})
    reference = {}
    try:
        for calls in WORKLOADS.values():
            for call in calls:
                if call.threads != 1 or call.key in reference:
                    continue
                outcome = runner.fermatq(call)
                if outcome.problems:
                    raise SystemExit(f"{call.label}: {outcome.problems}")
                reference[call.key] = sha256(outcome.out)
                if call.dump:
                    reference[call.key + " dump"] = sha256(runner.dump_path(call).read_bytes())
                print(call.key, reference[call.key])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
