"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench -q

Runs every workload at its smallest ladder (first rung only) in both modes
and checks that every metric BENCHMARK.json declares is printed with its
unit, that no command failed and that the oracle check of betti-n6 ran.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from ladders import basis_size, draw  # noqa: E402
from pommaret import expected_ranks, pommaret_basis  # noqa: E402
from pommaret.verify import random_quasi_stable  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, workload, trace, rungs=1):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--rungs", str(rungs)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smallest_ladder(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(x for x in lines if x.startswith("detail "))[7:])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert m["name"] in proc.stdout.split("\ndetail ")[0]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 and detail["failed_frac"] == 0
    if workload == "betti-n6":  # the first rung's ideal has 6 generators
        assert detail["oracle_checked"] >= 1


# the ROADMAP baseline cases and the cases the workloads were sized from
@pytest.mark.parametrize("case", [(3, 5, 6, 8), (5, 6, 6, 10), (11, 8, 3, 3),
                                  (10, 6, 4, 8), (11, 8, 2, 3), (5, 8, 2, 2)])
def test_draw_reproduces_library(case):
    ideal = random_quasi_stable(*case)
    gens = draw(*case)
    assert gens == tuple(g.exps for g in ideal.gens)
    basis = pommaret_basis(ideal)
    assert basis_size(gens, case[1], 10 ** 9) == (
        len(basis), sum(expected_ranks(basis)))


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench(tmp_path, "sweep-small", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_fails_changed_output(tmp_path):
    # a reference digest that no longer matches the program's output must
    # fail every command of that ideal
    skip = shutil.ignore_patterns("_work", "__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(path.read_text())
    outputs = ref["workloads"]["sweep-small"]["outputs"]
    outputs[min(outputs)] = "0" * 64
    path.write_text(json.dumps(ref))
    proc = _bench(tmp_path, "sweep-small", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
