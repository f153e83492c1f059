"""Smoke test of the benchmark itself, in seconds.

    python3 perfbench/smoke.py

Runs every workload at tiny size on the default seed, untraced and traced,
and checks that the result line carries exactly the metrics BENCHMARK.json
names and that no operation failed (error_rate 0).  It also checks that a
missing entry point makes the traced metrics that need it absent rather than
crashing, and that the benchmark refuses to run in a directory holding only
BENCHMARK.json and perfbench/.  Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, "perfbench/run.py"]
TIMEOUT_S = 170


def run(cwd: Path, workload: str, trace: int, tiny: bool = True):
    argv = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} = {m['value']!r}")
        elif not trace and m["value"] <= 0:
            problems.append(f"{where}: end-to-end metric {name} is {m['value']}")
    if result["attempted"] < 1:
        problems.append(f"{where}: no operation attempted")
    if result["failed"] or not result["correct"]:
        reasons = sorted({line.split(": ", 1)[-1] for line in done.stderr.splitlines()
                          if line.startswith("FAILED")})
        problems.append(f"{where}: error_rate {result['failed']}/{result['attempted']}"
                        f" ({'; '.join(reasons)})")
    return problems


def check_missing_entry_point() -> list[str]:
    """A renamed entry point leaves its metrics absent; the rest still come."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import garagesim.cli  # loads every module that holds an entry point
    import spans

    saved = garagesim.scenario.emit_report
    del garagesim.scenario.emit_report
    try:
        tracer = spans.Tracer()
        tracer.install()
        tracer.uninstall()
        values, absent = spans.per_layer_metrics(tracer)
    finally:
        garagesim.scenario.emit_report = saved
    problems = []
    if tracer.missing != ["emit_report"]:
        problems.append(f"missing entry points reported as {tracer.missing}")
    if set(absent) != {"scenario.emit_s", "scenario.report_mb"}:
        problems.append(f"absent metrics reported as {absent}")
    if len(values) + len(absent) != len(spans.PER_LAYER):
        problems.append("per-layer metrics lost beyond the absent ones")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark exits non-zero, no result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "plan-compile", 0, tiny=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = []
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            problems += check_result(w["name"], trace)
    problems += check_missing_entry_point()
    problems += check_bare_directory()
    for p in problems:
        print("FAIL " + p)
    checks = 2 * len(SPEC["workloads"]) + 2
    print(f"smoke: {len(problems)} problem(s) across {checks} checks")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
