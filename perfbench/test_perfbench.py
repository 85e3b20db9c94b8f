"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys
from itertools import islice

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from inputs import TINY, clips, image_requests, row_requests  # noqa: E402
from ledger import Ledger, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _fingerprint(workload: str, seed: int) -> list:
    if workload == "library-images":
        return [
            (list(r.image_a), list(r.image_b))
            for r in islice(image_requests(seed, TINY), 3)
        ]
    if workload == "tcp-unique-rows":
        return [(r.rows_a, r.rows_b) for r in islice(row_requests(seed, TINY), 3)]
    return [(c.session_id, c.frames) for c in islice(clips(seed, TINY), 2)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(workload: str) -> None:
    assert _fingerprint(workload, 7) == _fingerprint(workload, 7)
    assert _fingerprint(workload, 7) != _fingerprint(workload, 8)


def test_workloads_match_benchmark_json() -> None:
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_percentile_needs_ten_samples_beyond_it() -> None:
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile(list(range(1, 101)), 50) == 50
    with pytest.raises(ValueError):
        percentile(list(range(1, 100)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(1, 20)), 50)


def test_ledger_self_time_excludes_children() -> None:
    ledger = Ledger()
    with ledger.span("outer"):
        with ledger.span("inner"):
            pass
        with ledger.span("inner"):
            pass
    assert ledger.calls == {"outer": 1, "inner": 2}
    assert ledger.self_s["outer"] == pytest.approx(
        ledger.total_s["outer"] - ledger.total_s["inner"]
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_emits_the_declared_metrics(
    workload: str, trace: int, capsys: pytest.CaptureFixture
) -> None:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, sizes=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert meta["seed"] == 3 and meta["trace"] is bool(trace)
    if trace:
        assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert meta["oracle_mismatches"] == 0
