"""Benchmark of the strictlyap package, driven the way its users drive it.

    python3 perfbench/run.py --workload fixtures|sweep|trajectories --seed N \\
        --seconds S --trace 0|1 [--size full|tiny] [--record-baseline]

Run from the root of a checkout; the package is imported from ``src/``.  One
caller issues CLI commands and library calls back to back in this process (a
closed loop with one client).  A pass runs every operation of the workload
once; passes repeat while another one fits in ``--seconds`` (at least one
runs).  Every output is checked, and digested so that a change of output
shows against ``baseline.json``.  Times are normalised to a reference machine
speed (speed.py).  With ``--trace 0`` the last line carries the end-to-end
metrics; with ``--trace 1`` two untraced passes are followed by one traced
pass and the last line carries the per-layer metrics.  See README.md.
"""

import os

THREADS = 1   # BLAS/OpenMP threads, pinned before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"       # inputs and CSV output, removed at exit
TRACE_OUT = ROOT / ".perfbench_out"   # span dumps of traced runs
BASELINE = BENCH / "baseline.json"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "op_max_s": "s", "peak_rss_mb": "MiB"}


def monotonic() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class OpResult:
    name: str
    seconds: float      # normalised to the reference speed (speed.py)
    raw_s: float
    kernel_s: float     # median reference-kernel time around the operation
    digest: str
    reasons: list


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("fixtures", "sweep", "trajectories"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--record-baseline", action="store_true",
                   help="store this run's digests in baseline.json")
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: build the inputs, print the time and exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up

def load_package():
    """Import strictlyap from the checkout; returns the import time."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import strictlyap
    import_s = time.perf_counter() - t0
    if Path(strictlyap.__file__).resolve().parent != SRC / "strictlyap":
        raise SystemExit(f"perfbench: imported strictlyap from {strictlyap.__file__}, "
                         f"not from {SRC}")
    return import_s


def build_inputs(args, work: Path):
    import workloads as wl

    size = wl.FULL if args.size == "full" else wl.TINY
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    return wl.WORKLOADS[args.workload](args.seed, size, inputs)


def setup_probe(args, work: Path) -> int:
    """Child process: import, build the inputs, report when they are ready."""
    load_package()
    build_inputs(args, work)
    print(f"ready {monotonic()!r}", flush=True)
    return 0


def measure_setup(args) -> list[float]:
    """Raw start-to-ready time of fresh processes that only set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("ready ")]
        if proc.returncode != 0 or not ready:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        times.append(float(ready[-1].split()[1]) - t0)
    return times


# ---------------------------------------------------------------------------
# Passes

def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in name)


def run_pass(ops, work: Path) -> list[OpResult]:
    import speed
    import workloads as wl

    results = []
    for op in ops:
        out = work / "out" / _slug(op.name)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        clock = speed.Clock()
        try:
            with clock:
                text = op.run(out)
        except Exception as exc:   # a crashing operation is a failed one
            results.append(OpResult(op.name, clock.seconds, clock.raw_s, clock.kernel_s,
                                    "", [f"raised {type(exc).__name__}: {exc}"]))
            continue
        try:
            reasons = op.check(text, out)
        except Exception as exc:   # unparsable output fails the operation
            reasons = [f"check raised {type(exc).__name__}: {exc}"]
        results.append(OpResult(op.name, clock.seconds, clock.raw_s, clock.kernel_s,
                                wl.digest(text, out), reasons))
    return results


def run_passes(ops, work: Path, seconds: float, count: int | None = None):
    """Run ``count`` passes, or else repeat passes while the next one is
    expected to end within ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, work))
        elapsed = time.perf_counter() - start
        if count is not None:
            if len(passes) == count:
                break
        elif elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    first = {r.name: r.digest for r in passes[0]}
    for p in passes[1:]:
        for r in p:
            if r.digest != first[r.name]:
                r.reasons.append("output differs from the first pass")
    return passes


# ---------------------------------------------------------------------------
# Reporting

def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": THREADS, "machine": platform.machine()}


def baseline_changes(args, digests: dict) -> dict | None:
    """Operations whose digest differs from the recorded one (None: no record)."""
    if args.size != "full" or not BASELINE.is_file():
        return None
    record = json.loads(BASELINE.read_text())["digests"].get(args.workload, {}).get(str(args.seed))
    if record is None:
        return None
    return {name: {"baseline": record.get(name), "now": d}
            for name, d in digests.items() if record.get(name) != d}


def record_baseline(args, digests: dict) -> None:
    data = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    by_seed = data.setdefault("digests", {}).setdefault(args.workload, {})
    by_seed[str(args.seed)] = digests
    data["digests"][args.workload] = dict(sorted(by_seed.items(), key=lambda kv: int(kv[0])))
    BASELINE.write_text(json.dumps(data, indent=1) + "\n")


def emit(args, passes, metrics: dict, units: dict, extra: dict) -> int:
    results = [r for p in passes for r in p]
    failures = [(r.name, reason) for r in results for reason in r.reasons]
    failed = sum(1 for r in results if r.reasons)
    digests = {r.name: r.digest for r in passes[0]}
    changes = baseline_changes(args, digests)
    if args.record_baseline:
        record_baseline(args, digests)

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}: {len(passes)} pass(es) x {len(passes[0])} operations")
    env = environment()
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    op_medians = {}
    for i, name in enumerate(r.name for r in passes[0]):
        op_medians[name] = statistics.median(p[i].seconds for p in passes)
        raw = statistics.median(p[i].raw_s for p in passes)
        print(f"  op {name:<36} median {op_medians[name]:9.4f} s ({raw:.4f} s raw)  "
              f"digest {digests[name][:16]}")
    for name, reason in failures:
        print(f"  FAILED {name}: {reason}")
    if changes is None:
        print("digests: no baseline recorded for this workload and seed")
    else:
        print(f"digests: {len(changes)} changed against the baseline"
              + "".join(f"\n  changed: {name}" for name in changes))
    if "layer_shares" in extra:
        print("layer shares of the traced set-up and pass: " + ", ".join(
            f"{k} {v:.1%}" for k, v in extra["layer_shares"].items()))
    print(f"fail_frac = {failed / len(results):.6g} 1 ({failed} of {len(results)} operations)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    report = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "op_medians_s": op_medians,
              "trace": args.trace, "env": env, "passes": len(passes),
              "digests": digests, "digest_changes": changes,
              "failures": failures, **extra}
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


def end_to_end(args, work: Path) -> int:
    import speed

    setup = measure_setup(args)
    load_package()
    ops = build_inputs(args, work)
    passes = run_passes(ops, work, args.seconds)
    # a probe process cannot time the kernel while it imports, so set-up is
    # normalised with the machine speed measured over the rest of the run
    kernel_s = statistics.median(r.kernel_s for p in passes for r in p)
    walls = [sum(r.seconds for r in p) for p in passes]
    per_op = [statistics.median(p[i].seconds for p in passes)
              for i in range(len(passes[0]))]
    metrics = {
        "setup_s": statistics.median(setup) * speed.REFERENCE_S / kernel_s,
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(r.seconds for p in passes for r in p),
        "op_max_s": max(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return emit(args, passes, metrics, END_TO_END_UNITS,
                {"setup_probes_raw_s": setup, "kernel_s": kernel_s, "pass_walls_s": walls,
                 "pass_walls_raw_s": [sum(r.raw_s for r in p) for p in passes]})


def traced(args, work: Path) -> int:
    import_s = load_package()
    from tracing import UNITS, Tracer

    ops = build_inputs(args, work)
    # the first pass pays first-call costs; the second is the untraced reference
    warm, plain = run_passes(ops, work, args.seconds, count=2)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        ops = build_inputs(args, work)   # rebuilt so compiled expressions are traced
        traced_setup = time.perf_counter() - t0
        (traced_pass,) = run_passes(ops, work, args.seconds, count=1)
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced_pass):
        if a.digest != b.digest:
            b.reasons.append("traced output differs from the untraced output")
    plain_wall = sum(r.seconds for r in plain)
    traced_wall = sum(r.seconds for r in traced_pass)
    metrics = tracer.metrics(import_s, traced_wall - plain_wall)
    TRACE_OUT.mkdir(exist_ok=True)
    dump = TRACE_OUT / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
    tracer.dump(dump)
    traced_raw = traced_setup + sum(r.raw_s for r in traced_pass)
    shares = {layer: s / traced_raw for layer, s in tracer.layer_self_s().items()}
    shares["other"] = 1.0 - sum(shares.values())
    return emit(args, [warm, plain, traced_pass], metrics, UNITS,
                {"layer_shares": shares, "untraced_wall_s": plain_wall,
                 "traced_wall_s": traced_wall, "spans": str(dump.relative_to(ROOT))})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "strictlyap" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.setup_probe:
            return setup_probe(args, work)
        return traced(args, work) if args.trace else end_to_end(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass   # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
