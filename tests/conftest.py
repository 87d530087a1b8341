"""Inputs shared by several test modules."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture
def sweep_problems(tmp_path, monkeypatch):
    """A function of a workload seed that returns the benchmark's generated
    sweep problems, each loaded from its INI file."""
    from strictlyap.config import load_problem

    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # for its dataclasses
    spec.loader.exec_module(workloads)

    def load(seed: int) -> list:
        rng = np.random.default_rng([seed, 0x5EED])
        problems = []
        for i in range(workloads.FULL.sweep_problems):
            ini = tmp_path / f"sweep-{seed}-{i}.ini"
            ini.write_text(workloads.sweep_config(i, rng, seed, 2000), encoding="utf-8")
            problems.append(load_problem(ini))
        return problems

    return load
