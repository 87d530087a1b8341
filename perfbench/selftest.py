"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload, runs the benchmark at the tiny input size once untraced
and once traced, and checks that
- the last line is the result object, with every operation correct;
- every metric of BENCHMARK.json prints, by name and with its unit;
- both runs produced the same output digests.
It also checks that the benchmark refuses to run, without printing a result,
from a directory that holds only the benchmark.  Exits 1 on any failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_output(proc, metrics: list[dict]) -> tuple[list[str], dict]:
    """Problems with one run's output, and its digests."""
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"], {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"outputs not all correct: {lines[-1]}")
    printed = {m["name"]: m["unit"] for m in metrics}
    if set(result["metrics"]) != set(printed):
        problems.append(f"metric names {sorted(result['metrics'])}")
    for name, unit in printed.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {name}: {got}")
        if not any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines):
            problems.append(f"metric {name} not printed with unit {unit}")
    report = json.loads(next(ln for ln in lines if ln.startswith("report: "))[8:])
    return problems, report["digests"]


def bare_directory_refuses() -> list[str]:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = bare_directory_refuses()
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain, d_plain = check_output(run(ROOT, workload, 0), SPEC["end_to_end"])
        traced, d_traced = check_output(run(ROOT, workload, 1), SPEC["per_layer"])
        failures += [f"{workload} untraced: {p}" for p in plain]
        failures += [f"{workload} traced: {p}" for p in traced]
        if d_plain != d_traced:
            failures.append(f"{workload}: digests differ between the two runs")
        print(f"{workload}: {'ok' if not plain and not traced and d_plain == d_traced else 'FAILED'}",
              flush=True)
    for f in failures:
        print(f"FAILED {f}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
