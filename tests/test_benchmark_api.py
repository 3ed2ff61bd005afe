"""Smoke test of the gssd API that the benchmark in ``perfbench/`` calls.

A rename of a function or config field the benchmark uses fails here, in the
test suite, and not first in a benchmark run.
"""

from dataclasses import replace
from pathlib import Path

import pytest

import gssd


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    return workloads


def test_warm_up_and_slice_rebuild(workloads, tmp_path):
    inputs = workloads.swd_inputs(1, str(tmp_path))
    workloads.warm_up(inputs, ("wasserstein", "mmd", "sinkhorn", "oracle"))
    X, Y, cfg = inputs["X"], inputs["Y"], replace(inputs["cfg"], num_projections=4)
    est = gssd.estimate(X, Y, cfg)
    tx, ty = workloads.slice_pair(X, Y, cfg.seed, 3, cfg.sigma)
    assert est.per_projection[3] == gssd.wasserstein_pp(tx, ty, workloads.P)
