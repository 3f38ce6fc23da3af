"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import generators  # noqa: E402
import workloads  # noqa: E402
from fiatcells import fixtures, formats, hecke  # noqa: E402


def _parsed(text):
    return formats.parse_algebra(text)


@pytest.mark.parametrize(
    "text, fixture",
    [
        (generators.truncated_poly(2, graded=True), "dualnumbers"),
        (generators.truncated_poly(3), "x3local"),
        (generators.truncated_poly(4), "x4local"),
        (generators.zigzag(2), "zigzagA2"),
        (generators.zigzag(2, graded=True), "zigzagA2-graded"),
    ],
)
def test_generated_rung_equals_bundled_fixture(text, fixture):
    got, want = _parsed(text), fixtures.load_algebra(fixture)
    assert got.algebra.mult == want.algebra.mult
    assert got.algebra.unit == want.algebra.unit
    assert got.algebra.idempotents == want.algebra.idempotents
    assert got.degrees == want.degrees


@pytest.mark.parametrize(
    "expected, fixture",
    [
        (generators.expected_truncated_poly(2, graded=True), "dualnumbers"),
        (generators.expected_truncated_poly(3), "x3local"),
        (generators.expected_truncated_poly(4), "x4local"),
        (generators.expected_zigzag(2), "zigzagA2"),
        (generators.expected_zigzag(2, graded=True), "zigzagA2-graded"),
    ],
)
def test_family_formulas_agree_with_frozen_fixture_values(expected, fixture):
    assert expected == fixtures.EXPECTED[fixture]


def test_seed_permutes_only_the_basis_order():
    plain = _parsed(generators.zigzag(3)).algebra
    shuffled = _parsed(generators.zigzag(3, perm_seed=5)).algebra
    assert shuffled.basis != plain.basis
    assert sorted(shuffled.basis) == sorted(plain.basis)
    assert generators.zigzag(3, perm_seed=5) == generators.zigzag(3, perm_seed=5)

    def product(A, x, y):
        v = A.mul(A.element(x), A.element(y))
        return {A.basis[i]: c for i, c in enumerate(v) if c}

    for x in plain.basis:
        for y in plain.basis:
            assert product(plain, x, y) == product(shuffled, x, y)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_independent_rsk_matches_program_oracle(n):
    oracle = hecke.rsk_cells(n)
    names = sorted(name for cell in oracle.two_sided_cells for name in cell)
    expected = workloads._type_a_expected(names, n)
    for attr, cells in expected.items():
        assert getattr(oracle, attr) == cells


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_traced_run_repeats_its_counters_and_reports_every_layer_metric():
    proc = _run("--workload", "hecke-cells", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(result["metrics"]) == sorted(per_layer)
    assert result["metrics"]["hecke.products"]["value"] == 4 + 36 + 64 + 576


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "fixtures", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
