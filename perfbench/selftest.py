#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload shrunk (``run.py --toy``: a small tree with a few
thousand firings, or 20 expression atoms) with tracing off and on, and
checks that the last line is a correct result carrying every metric that
``BENCHMARK.json`` names, each with its unit.  Exits 1 on the first
failure.  Takes well under a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"selftest: FAIL {message}", file=sys.stderr)
    sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--toy",
                 "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace)],
                cwd=str(ROOT), capture_output=True, text=True, timeout=300)
            where = f"{workload} --trace {trace}"
            if out.returncode != 0:
                fail(f"{where}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                fail(f"{where}: not correct\n{out.stderr}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{where}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, units "
                     f"{[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)):
                    fail(f"{where}: {name} is not a number")
            print(f"selftest: ok {where}: {len(got)} metrics")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
