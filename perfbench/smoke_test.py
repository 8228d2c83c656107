#!/usr/bin/env python3
"""Smoke test of the host-speed benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at the shortest length (one
second), untraced and traced, and asserts that every named metric is
printed with its unit, that no op failed (error_rate 0), and that the
core-layer counts are zero on sc-first-touch and nonzero on sc-griffin.
Also asserts that an unknown workload is refused. Exits 0 on success.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CORE = ["count.griffin.periods", "count.griffin.dpc.candidates",
        "count.griffin.inter_gpu_migrations",
        "ratio.griffin.candidate_yield", "count.gpu.drains",
        "prof.policy.count_request.share", "prof.policy.count_reply.share",
        "prof.policy.period.share", "prof.gpu.drain_check.share",
        "prof.acud.resume.share"]


def bench(*args):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def run(workload, trace):
    done = bench("--workload", workload, "--seed", "42", "--seconds", "1",
                 "--trace", str(trace))
    assert done.returncode == 0, f"{workload}: exit {done.returncode}\n" \
                                 f"{done.stderr[-2000:]}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    text = "\n".join(lines[:-1])
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: metric set differs"
    for name, unit in want.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b",
                         text, re.M), f"{workload}: {name} not printed"
    if not trace:
        m = re.search(r"^\s+error_rate\s+(\S+)\s+ratio\b", text, re.M)
        assert m and float(m.group(1)) == 0, f"{workload}: error_rate"
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    layers = {}
    for w in SPEC["workloads"]:
        run(w["name"], 0)
        layers[w["name"]] = run(w["name"], 1)
        print(f"ok {w['name']}", flush=True)
    for name in CORE:
        assert layers["sc-first-touch"][name] == 0, name
        assert layers["sc-griffin"][name] > 0, name
    assert bench("--workload", "no-such-workload").returncode != 0
    print("smoke test passed")


if __name__ == "__main__":
    main()
