"""Acceptance suite: every shipping criterion, one test each, with a printed
pass/fail line per criterion (run with ``pytest -s`` to see them inline).

Tolerances are pinned here: parameter and distance checks are exact (zero
tolerance); the third-series asymptote check compares against frozen golden
data generated by the big-integer oracle, never against an invented number.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from growthcodes import (
    FieldMatrix,
    check_bounded,
    construction_step,
    determinant,
    direct_sum,
    make_field,
    min_distance_exhaustive,
    new_code,
    repetition,
)
from growthcodes.code import _min_distance_by_dual
from growthcodes.reedmuller import rm_generator, rm_params, rm_third_series
from growthcodes.seeds import (
    build_seed_matrices,
    family_code,
    seed_code,
    series_params,
    series_resolved_steps,
)

from conftest import random_small_codes

GOLDEN = Path(__file__).parent / "golden"

F2, F3, F5, F7 = (make_field(p) for p in (2, 3, 5, 7))

CHAIN_DISTANCES = [1, 4, 20, 120, 840, 6720]  # d_j = prod(3 + l), j = 0..5


def _criterion(number: int, name: str, failures: list, detail: str = ""):
    passed = not failures
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} {name}{suffix}")
    assert passed, f"criterion {number} ({name}): {failures[:5]}"


def test_criterion_01_seed_code_baseline():
    failures = []
    start = time.perf_counter()
    for field in (F2, F3):
        for i in range(2, 7):
            code = seed_code(field, i)
            d = min_distance_exhaustive(code)
            if (code.n, code.k, d) != (2 * i, 2 * i - 1, 1):
                failures.append((field.p, i, code.n, code.k, d))
            if not check_bounded(code, 2 * i - 1).bounded:
                failures.append((field.p, i, "not bounded"))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _criterion(1, "seed codes [2i,2i-1,1], (2i-1)-bounded, i=2..6, GF(2)/GF(3)", failures,
               f"{elapsed:.2f}s")


def _chain_distances(field):
    out = []
    for j in range(6):
        code = family_code(field, 2, j)
        out.append(min_distance_exhaustive(code))
    return out


def test_criterion_02_construction_chain_distances():
    failures = []
    start = time.perf_counter()
    gf2 = _chain_distances(F2)
    gf2_time = time.perf_counter() - start
    if gf2 != CHAIN_DISTANCES:
        failures.append(("GF(2)", gf2))
    if gf2_time >= 10.0:
        failures.append(f"GF(2) runtime {gf2_time:.2f}s >= 10s")
    start = time.perf_counter()
    gf3 = _chain_distances(F3)
    gf3_time = time.perf_counter() - start
    if gf3 != CHAIN_DISTANCES:
        failures.append(("GF(3)", gf3))
    if gf3_time >= 60.0:
        failures.append(f"GF(3) runtime {gf3_time:.2f}s >= 60s")
    _criterion(2, "chain distances 1,4,20,120,840,6720 exact, GF(2)+GF(3)", failures,
               f"GF(2) {gf2_time:.2f}s, GF(3) {gf3_time:.2f}s")


def test_criterion_03_cross_field_independence():
    failures = []
    start = time.perf_counter()
    gf5 = _chain_distances(F5)
    if gf5 != CHAIN_DISTANCES:
        failures.append(("GF(5)", gf5))
    _criterion(3, "chain distances identical over GF(2), GF(3), GF(5)", failures,
               f"GF(5) {time.perf_counter() - start:.2f}s")


def test_criterion_04_series_identity_and_discrepancy_report():
    failures = []
    for i in range(1, 101):
        member = series_params(i)
        if member.params.k * member.params.d != 2 * i * member.params.n:
            failures.append((i, "identity"))
        if member.kd_over_n != 2 * i:
            failures.append((i, "fraction"))
        if member.declared_kd_over_n != Fraction(2 * i * i, i + 1):
            failures.append((i, "declared ratio"))
        if member.resolved_steps != 4 * i * i + 2 * i - 1:
            failures.append((i, "resolved steps"))
    first = series_params(1)
    code = family_code(F2, 2, series_resolved_steps(1))
    d = min_distance_exhaustive(code)
    if (code.n, code.k, d) != (26880, 8, 6720):
        failures.append(("i=1 member", code.n, code.k, d))
    print(
        "discrepancy report: declared steps 4i^2-2i-1 give KD/N = 2i^2/(i+1) "
        f"(i=1: {first.declared_kd_over_n}); resolved steps 4i^2+2i-1 give KD/N = 2i "
        f"(i=1: {first.kd_over_n})"
    )
    _criterion(4, "series identity KD/N = 2i exact, i <= 100; i=1 member brute-forced", failures)


def test_criterion_05_sqrt_bracket():
    failures = []
    for i in range(1, 101):
        k_i = 4 * i * (i + 1)
        if not ((2 * i + 1) ** 2 > k_i and k_i > (2 * i) ** 2):
            failures.append(i)
    _criterion(5, "2i > sqrt(k_i)-1 > 2i-1 by integer squaring, i <= 100", failures)


def test_criterion_06_matrix_lemmas():
    failures = []
    for field in (F2, F3, F7):
        p = field.p
        base = build_seed_matrices(field, 1)
        base_inverse = -base.a  # the base block squares to minus the identity
        for i in range(1, 51):
            seeds = build_seed_matrices(field, i)
            a = seeds.a.array
            if not (np.count_nonzero(a, axis=0) == 2 * i - 1).all():
                failures.append((p, i, "column weights"))
            for j in range(1, i + 1):
                pair = (a[:, 2 * j - 2] + a[:, 2 * j - 1]) % p
                expected = np.zeros(2 * i, dtype=np.int64)
                expected[2 * j - 2], expected[2 * j - 1] = (-1) % p, 1
                if pair.tolist() != expected.tolist():
                    failures.append((p, i, j, "pair sum"))
            total = a[:, : 2 * i - 1].sum(axis=1) % p
            if not (np.count_nonzero(total) == 1 and total[-1] == 1):
                failures.append((p, i, "basis sum"))
            if (seeds.b.transpose() @ base.a @ seeds.b).array.any():
                failures.append((p, i, "orthogonality"))
            if (seeds.b.transpose() @ base_inverse @ seeds.b).array.any():
                failures.append((p, i, "inverse orthogonality"))
        for i in range(1, 9):
            if int(determinant(build_seed_matrices(field, i).a)) != 1:
                failures.append((p, i, "determinant"))
    _criterion(6, "matrix lemmas exact, i <= 50 (det i <= 8), GF(2)/GF(3)/GF(7)", failures)


def test_criterion_07_step_lower_bound_100_random_codes():
    failures = []
    exact = 0
    codes = random_small_codes(seed=20240810, count=100)
    for idx, code in enumerate(codes):
        d = min_distance_exhaustive(code)
        stepped = new_code(code.field, construction_step(list(code.basis)))
        d_prime = min_distance_exhaustive(stepped)
        if d_prime < code.k * d:
            failures.append((idx, code.field.p, code.n, code.k, d, d_prime))
        # the step lemma's exact cases: total basis weight W, basis sum weight sigma
        total = sum(code.basis_weights())
        sigma = int(np.count_nonzero(code.generator.array.sum(axis=0) % code.field.p))
        if sigma == d or (code.k + 1) * d >= total:
            exact += 1
            want = min((code.k + 1) * d, total) if sigma == d else total
            if d_prime != want:
                failures.append((idx, code.field.p, code.n, code.k, d, d_prime, "exact", want))
    if exact != 37:
        failures.append(("codes with an exact one-step distance", exact, 37))
    _criterion(7, "one step on 100 random codes: d' >= k*d, exact on the 37 with sigma = d or (k+1)d >= W", failures)


def test_criterion_08_reed_muller():
    failures = []
    start = time.perf_counter()
    budget = 1 << 26
    for m in range(1, 6):
        for r in range(m + 1):
            code = rm_generator(m, r)
            expected = rm_params(m, r)
            if (code.n, code.k) != (expected.n, expected.k):
                failures.append((m, r, "dimensions"))
            # the search takes the dual wherever the 2^k messages are over budget
            d = min_distance_exhaustive(code, budget=budget)
            if d != expected.d:
                failures.append((m, r, "distance", d, expected.d))
            # and the dual engine is checked on its own where its words are few
            if code.n - code.k <= 16 and _min_distance_by_dual(code) != expected.d:
                failures.append((m, r, "dual distance", expected.d))
    for r in range(1, 11):
        params = rm_params(2 * r + 1, r)
        if params.k != 4**r or Fraction(params.k * params.d, params.n) != 2**r:
            failures.append((r, "diagonal identity"))
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s >= 60s")
    _criterion(8, "RM brute-forced for r <= m <= 5; kd/n = sqrt(k) on diagonal, r <= 10",
               failures, f"{elapsed:.2f}s")


def test_criterion_09_composition_invariance():
    failures = []
    bases = [
        new_code(F2, FieldMatrix(F2, [[1, 1, 0, 0], [0, 0, 1, 1]])),
        new_code(F3, FieldMatrix(F3, [[1, 1, 0], [0, 1, 1]])),
        new_code(F5, FieldMatrix(F5, [[1, 2, 3, 0], [0, 1, 4, 1]])),
    ]
    for base in bases:
        d = min_distance_exhaustive(base)
        ratio = Fraction(base.k * d, base.n)
        for s in range(1, 6):
            for tag, composed in (("sum", direct_sum(base, s)), ("rep", repetition(base, s))):
                d_prime = min_distance_exhaustive(composed)
                if Fraction(composed.k * d_prime, composed.n) != ratio:
                    failures.append((base.field.p, tag, s))
    _criterion(9, "direct sum and repetition preserve kd/n, s = 1..5, brute-forced", failures)


def test_criterion_10_third_series_against_golden():
    failures = []
    data = json.loads((GOLDEN / "rm_third_series.json").read_text())
    rows = data["rows"]
    if len(rows) != 1000:
        failures.append("golden file does not cover m <= 1000")
    ratios = {}
    for row in rows:
        rec = rm_third_series(row["m"])
        if rec.kd_over_n != Fraction(row["kd_over_n_num"], row["kd_over_n_den"]):
            failures.append((row["m"], "exact kd/n"))
        if abs(rec.asymptote_ratio - row["ratio"]) > 1e-12 * abs(row["ratio"]):
            failures.append((row["m"], "ratio"))
        ratios[row["m"]] = rec.asymptote_ratio
    for cls in data["tail_classes"]:
        reference = cls["reference_ratio"]
        allowed = cls["max_abs_deviation"] + 1e-12
        for m in range(cls["tail_start"], 1001):
            if m % 3 == cls["residue"] and abs(ratios[m] - reference) > allowed:
                failures.append((m, "stabilization"))
    _criterion(10, "third-series kd/n exact vs golden, ratio stabilizes per residue class",
               failures)


def _run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "growthcodes", *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_11_determinism_across_runs(tmp_path):
    failures = []
    for kind, args in [
        ("growth.csv", ["growth", "--family", "seed-family", "--max-index", "4", "--i", "2",
                        "--format", "csv"]),
        ("growth.json", ["growth", "--family", "rm-diagonal", "--max-index", "3",
                         "--format", "json"]),
        ("generator", ["build", "--family", "family", "--i", "2", "--j", "3", "--field", "3"]),
    ]:
        outputs = set()
        for run in range(3):
            out = tmp_path / f"{kind}.run{run}"
            _run_cli(*args, "--out", str(out))
            outputs.add(out.read_bytes())
        if len(outputs) != 1:
            failures.append(kind)
    _criterion(11, "growth tables and generator files byte-identical across runs",
               failures)
