"""Inputs shared by several test modules."""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture
def sweep_inis(tmp_path, monkeypatch):
    """A function of a workload seed that writes the benchmark's generated
    sweep problems as INI files and returns their paths."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # for its dataclasses
    spec.loader.exec_module(workloads)

    def write(seed: int) -> list[Path]:
        rng = np.random.default_rng([seed, 0x5EED])
        paths = []
        for i in range(workloads.FULL.sweep_problems):
            ini = tmp_path / f"sweep-{seed}-{i}.ini"
            ini.write_text(workloads.sweep_config(i, rng, seed, 2000), encoding="utf-8")
            paths.append(ini)
        return paths

    return write


@pytest.fixture
def sweep_problems(sweep_inis):
    """A function of a workload seed that returns the benchmark's generated
    sweep problems, each loaded from its INI file."""
    from strictlyap.config import load_problem

    return lambda seed: [load_problem(ini) for ini in sweep_inis(seed)]


@pytest.fixture
def set_cpus(monkeypatch):
    """A function that sets the number of CPUs ``os.sched_getaffinity``
    reports, so ``dynsys.map_forked`` cuts its items into that many slices."""

    def set_cpus(k: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

    return set_cpus
