import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("parent, change, verdict", [
    # parent IQR 0.02 of a median 1.0: the bound 0.25 decides
    ([0.98, 0.99, 1.0, 1.01, 1.02], [1.1, 1.1, 1.2, 1.2, 1.2], "within bound"),
    ([0.98, 0.99, 1.0, 1.01, 1.02], [1.3, 1.3, 1.3, 1.3, 1.3], "worse than bound"),
    # parent IQR 0.4 of a median 1.0, wider than the bound
    ([0.6, 0.8, 1.0, 1.2, 1.4], [1.0, 1.0, 1.0, 1.0, 1.0], "unresolved"),
    ([0.6, 0.8, 1.0, 1.2, 1.4], [0.9, 0.9, 0.9, 0.9, 0.9], "unresolved"),
    # ... unless every change run is better than every parent run
    ([0.6, 0.8, 1.0, 1.2, 1.4], [0.5, 0.5, 0.5, 0.5, 0.5], "within bound"),
])
def test_verdict_is_unresolved_when_the_parent_spread_exceeds_the_bound(
        parent, change, verdict):
    entry = bench_pairs.compare(parent, change, 0.25, lower=True)
    assert entry["verdict"] == verdict
    assert entry["parent_iqr_rel"] == pytest.approx(
        entry["parent_iqr"] / entry["parent"]["median"])


def test_higher_is_better_metric_flips_the_direction():
    parent = [0.98, 0.99, 1.0, 1.01, 1.02]
    assert bench_pairs.compare(parent, [0.7] * 5, 0.25, lower=False)["verdict"] == (
        "worse than bound")
    assert bench_pairs.compare(parent, [1.5] * 5, 0.25, lower=False)["verdict"] == (
        "within bound")


def test_claim_names_a_workload():
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--out", "x.json", "--claim", "nope:wall_s"])
    args = bench_pairs.parse_args(["--out", "x.json", "--claim", "sweep:wall_s"])
    assert args.seeds == [0] and args.claim == ["sweep:wall_s"]
