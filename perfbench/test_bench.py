"""Tests of the benchmark itself, on the smoke workloads (gamma0 11).

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith('{"correct"')]
    return proc, results


def units_of(metrics):
    return {k: v["unit"] for k, v in metrics.items()}


def test_smoke_traced_reports_every_layer_metric():
    proc, results = run_bench("--workload", "smoke", "--seconds", "0",
                              "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    expected = {m["name"]: m["unit"] for m in declared()["per_layer"]}
    assert len(results) == 3
    for res in results:
        assert res["correct"] and res["failed"] == 0
        assert res["attempted"] == 2          # one untraced, one traced
        assert units_of(res["metrics"]) == expected
        assert res["metrics"]["trace.coverage"]["value"] > 0.9
    eigen = results[2]["metrics"]
    assert eigen["hecke.hecke_tn_fast_calls"]["value"] > 0
    assert eigen["hecke.heilbronn_terms"]["value"] > 0


def test_untraced_reports_every_end_to_end_metric():
    proc, results = run_bench("--workload", "decompose-gamma0-11",
                              "--seed", "7", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert results == [res]
    expected = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
    assert units_of(res["metrics"]) == expected
    assert res["correct"] and res["attempted"] == 2   # at least two attempts
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_wrong_answer_counts_as_failed(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    ref_path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["plus-gamma0-11"]["dim_plus"] += 1
    ref_path.write_text(json.dumps(ref))
    proc, results = run_bench("--workload", "plus-gamma0-11", "--seconds",
                              "0", root=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    (res,) = results
    assert not res["correct"] and res["failed"] == res["attempted"] == 2
    assert res["metrics"]["correct_frac"]["value"] == 0
    assert "dim_plus" in proc.stderr


def test_without_the_library_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc, results = run_bench("--workload", "plus-ns_plus-53", "--seed", "1",
                              "--seconds", "10", "--trace", "0",
                              root=str(tmp_path))
    assert proc.returncode != 0
    assert results == []


def test_reference_eigensystem_agrees_with_criterion_05():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from congsym.polys import NumberField, UniPoly
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)["eigensystem-ns_plus-13-L500"]
    modulus = UniPoly([-1, -1, 2, 1])
    a = NumberField(modulus, var="a").gen()
    assert ref["modulus"] == modulus.to_str()
    assert ref["pieces"] == [[3, modulus.to_str()]]
    assert len(ref["a"]) == 499                      # a_1 .. a_499
    assert ref["a"][:5] == ["1"] + [e.to_str() for e in (
        a, -(a * a) - 2 * a, a * a - 2, a * a + 2 * a - 2)]
