"""Self-checks of the benchmark itself (two to three minutes).

    python3 -m pytest perfbench/test_selfcheck.py -q

Two traced runs of the same seed must give identical exact counts, and the
associator solver's per-degree nullity must equal dim grt_1 in degrees 1..5.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import hilbert_dimension  # noqa: E402

SHAPES_PREFIX = "solve_exact (rows, cols, nullity) per call: "


def traced_run(workload: str) -> tuple[dict, list]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "0", "--trace", "1"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=400)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    shapes = next(json.loads(line.strip()[len(SHAPES_PREFIX):]) for line in lines
                  if line.strip().startswith(SHAPES_PREFIX))
    return {k: v["value"] for k, v in result["metrics"].items()}, shapes


def test_hilbert_oracle():
    assert [hilbert_dimension(3, d) for d in range(4)] == [1, 3, 7, 15]
    assert hilbert_dimension(3, 7) == 255
    assert hilbert_dimension(5, 4) == 1701


@pytest.mark.parametrize("workload, counts", [
    ("assoc-solve", ["exact.solve_exact.rows", "exact.solve_exact.cols",
                     "exact.solve_exact.nullity", "associator.residual_evals",
                     "parenthesized.evaluate_word.calls", "chords.tables.rows"]),
    ("cli-mix", ["braids.free_word.letters", "braids.braids_equal.calls"]),
])
def test_counts_repeat_exactly(workload, counts):
    first, shapes1 = traced_run(workload)
    second, shapes2 = traced_run(workload)
    for name in counts:
        assert first[name] is not None and first[name] > 0, name
        assert first[name] == second[name], name
    assert shapes1 == shapes2
    if workload == "assoc-solve":
        # one solve per degree 1..5; nullity = dim grt_1 in that degree
        assert [nullity for _rows, _cols, nullity in shapes1] == [0, 0, 1, 0, 1]
