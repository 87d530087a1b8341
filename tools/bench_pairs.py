"""Alternating parent/change pairs of the benchmark, written as one JSON file.

    python tools/bench_pairs.py --parent HEAD~1 --change WORKTREE \\
        --seed 0 --seed 1 --pairs 10 --seconds 20 \\
        --claim sweep:wall_s --out BENCH_<n>.json

Run from inside the repository.  Each side runs from its own tree: a
``git archive`` of its revision, or for ``--change WORKTREE`` a copy of the
working tree's files that git tracks or would track.  For each workload and
seed, pair i runs ``perfbench/run.py --trace 0`` once on each side, the
parent first in even pairs and the change first in odd ones.  The file holds
each end-to-end metric's runs, median and quartiles per side, the pairs in
which the change read lower, a verdict on the change of the median against
the bound of the parent's ``BENCHMARK.json``, and both sides' digests at
seeds 0 and 1 (one short run a side where no pair ran at that seed).  The
layout is that of ``BENCH_28.json`` to ``BENCH_30.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

QUARTILES = "statistics.quantiles(runs, n=4, method='inclusive'); runs listed in pair order"
RUN_TIMEOUT_S = 900
WORKLOADS = ("fixtures", "sweep", "trajectories")
DIGEST_SEEDS = (0, 1)
VERDICT_RULE = ("unresolved when the parent's interquartile range exceeds the bound "
                "times the parent median, unless every change run is better than every "
                "parent run; otherwise within bound when the median is no worse than the "
                "bound, else worse than bound")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", default="HEAD~1", help="revision of the parent side")
    p.add_argument("--change", default="WORKTREE",
                   help="revision of the change side, or WORKTREE for the working tree")
    p.add_argument("--seed", action="append", type=int, dest="seeds",
                   help="workload seed to pair (repeatable; default 0)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                   help="a claimed gain, judged at every paired seed of the workload")
    p.add_argument("--what", default="", help="what the change does, for the file")
    p.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = p.parse_args(argv)
    args.seeds = args.seeds or [0]
    if args.pairs < 1:
        p.error(f"--pairs must be at least 1, got {args.pairs}")
    for claim in args.claim:
        if claim.count(":") != 1 or claim.split(":")[0] not in WORKLOADS:
            p.error(f"--claim must be WORKLOAD:METRIC of a workload, got {claim!r}")
    return args


def git(*argv: str, cwd: Path) -> bytes:
    return subprocess.run(["git", *argv], cwd=cwd, check=True, capture_output=True).stdout


def make_tree(repo: Path, rev: str, dest: Path) -> str:
    """Write the files of ``rev`` (or of the working tree) to ``dest``;
    returns the name the side goes by in the file."""
    dest.mkdir(parents=True)
    if rev == "WORKTREE":
        names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=repo)
        for name in filter(None, names.decode().split("\0")):
            src = repo / name
            if src.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        head = git("rev-parse", "--short", "HEAD", cwd=repo).decode().strip()
        return f"working tree on {head}"
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev, cwd=repo))) as tar:
        tar.extractall(dest, filter="data")
    return git("rev-parse", "--short", rev, cwd=repo).decode().strip()


def run_side(tree: Path, workload: str, seed: int, seconds: int, size: str) -> dict:
    """One benchmark run in ``tree``: its last line, and its report."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--size", size]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    reports = [ln for ln in lines if ln.startswith("report: ")]
    if proc.returncode != 0 or not reports:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} failed in {tree}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["report"] = json.loads(reports[-1][len("report: "):])
    return result


def summary(runs: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1
                 else (runs[0],) * 3)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list[float], change: list[float], bound: float, lower: bool) -> dict:
    """One metric of one workload and seed, both sides over the pairs."""
    p, c = summary(parent), summary(change)
    rel = c["median"] / p["median"] - 1.0 if p["median"] else math.nan
    iqr = p["q3"] - p["q1"]
    spread = iqr / p["median"] if p["median"] else math.inf
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within bound" if (rel if lower else -rel) <= bound else "worse than bound"
    return {"bound": bound, "parent": p, "change": c,
            "change_lower_in_pairs": sum(b < a for a, b in zip(parent, change)),
            "median_change_rel": rel, "parent_iqr": iqr, "parent_iqr_rel": spread,
            "verdict": verdict}


def claim_text(entry: dict, metric: str, pairs: int) -> str:
    """The rule of a claimed gain: lower in at least 9 of 10 pairs, and the
    median difference above the parent's interquartile range."""
    p, c = entry["parent"]["median"], entry["change"]["median"]
    k, iqr = entry["change_lower_in_pairs"], entry["parent_iqr"]
    met = k >= math.ceil(0.9 * pairs) and p - c > iqr
    return (f"{'met' if met else 'not met'}: {metric} {p:.4g} -> {c:.4g} "
            f"({entry['median_change_rel']:+.1%}), lower in {k} of {pairs} pairs, "
            f"median difference {p - c:.4g} against a parent IQR of {iqr:.4g}")


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).decode().strip())
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        names = {side: make_tree(repo, rev, trees[side])
                 for side, rev in (("parent", args.parent), ("change", args.change))}
        bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in bench["end_to_end"]}
        workloads, digests, env = {}, {}, None
        for wl in WORKLOADS:
            for seed in args.seeds:
                runs = {"parent": [], "change": []}
                order = []
                for i in range(args.pairs):
                    first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    order.append(first[0])
                    for side in first:
                        runs[side].append(run_side(trees[side], wl, seed, args.seconds,
                                                   args.size))
                        print(f"{wl} seed {seed} pair {i + 1} {side}: "
                              f"wall_s {runs[side][-1]['metrics']['wall_s']['value']:.4f}",
                              file=sys.stderr, flush=True)
                env = env or runs["parent"][0]["report"]["env"]
                workloads[f"{wl} seed {seed}"] = {
                    "pairs": args.pairs, "seconds": float(args.seconds), "seed": seed,
                    "first_in_pair": order,
                    "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
                    "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                    "metrics": {name: compare(*([r["metrics"][name]["value"] for r in runs[s]]
                                                for s in ("parent", "change")), *bounds[name])
                                for name in bounds},
                }
                sets = {s: {json.dumps(r["report"]["digests"], sort_keys=True)
                            for r in runs[s]} for s in runs}
                digests[f"{wl} seed {seed} (pairs)"] = {
                    "equal": sets["parent"] == sets["change"] and len(sets["parent"]) == 1,
                    "parent_sets": len(sets["parent"]), "change_sets": len(sets["change"])}
                if seed in DIGEST_SEEDS:
                    digests[f"{wl} seed {seed}"] = {
                        s: runs[s][0]["report"]["digests"] for s in runs}
            for seed in DIGEST_SEEDS:
                if seed not in args.seeds:
                    digests[f"{wl} seed {seed}"] = {
                        s: run_side(trees[s], wl, seed, 1, args.size)["report"]["digests"]
                        for s in ("parent", "change")}
    for key, entry in digests.items():
        if "parent" in entry:
            digests[key] = {"equal": entry["parent"] == entry["change"], **entry}
    claims = {}
    for claim in args.claim:
        wl, metric = claim.split(":")
        for seed in args.seeds:
            key = f"{wl} seed {seed}"
            claims[key] = claim_text(workloads[key]["metrics"][metric], metric, args.pairs)
    record = {
        "what": args.what,
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} "
                    f"--trace 0" + ("" if args.size == "full" else f" --size {args.size}")),
        "parent": names["parent"], "change": names["change"],
        "env": ", ".join(f"{k} {v}" for k, v in (env or {}).items()),
        "quartiles": QUARTILES,
        "verdict_rule": VERDICT_RULE + " (bounds from the parent's BENCHMARK.json)",
        "claim_rule": ("claimed: the metric lower in at least 9 of 10 pairs and the median "
                       "difference larger than the parent's interquartile range, at every "
                       "paired seed; every other metric: a regression is a change median "
                       "worse than the parent median by more than the BENCHMARK.json bound"
                       if args.claim else "no gain claimed; a regression is a change median "
                       "worse than the parent median by more than the BENCHMARK.json bound"),
        "claim": claims or "none",
        "workloads": workloads,
        "digests_against_parent": {
            "how": "every paired run of both sides, and one --seconds 1 run a side at each "
                   "digest seed that no pair ran; each side gave one digest set per "
                   "workload and seed",
            "runs": digests},
        "notes": ("Pairs alternate which side runs first (first_in_pair); each side ran "
                  "from its own tree (git archive of a revision, or a copy of the "
                  "working tree's tracked and untracked, not ignored, files)."),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    failed = [k for k, w in workloads.items() if any(w["failed"].values())]
    unequal = [k for k, d in digests.items() if not d["equal"]]
    for key, text in claims.items():
        print(f"claim {key}: {text}")
    for key, w in workloads.items():
        for name, entry in w["metrics"].items():
            if entry["verdict"] != "within bound":
                print(f"{key} {name}: {entry['verdict']}, median "
                      f"{entry['median_change_rel']:+.1%}, parent IQR "
                      f"{entry['parent_iqr_rel']:.1%} of its median")
    print(f"wrote {args.out}: {len(workloads)} workload seeds, "
          f"{len(failed)} with failed operations, {len(unequal)} digest sets unequal")
    return 1 if failed or unequal else 0


if __name__ == "__main__":
    sys.exit(main())
