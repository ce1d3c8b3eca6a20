import csv
import io
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from growthcodes import VerificationError, cli, construct, growth, make_field, seeds
from growthcodes import code as gc_code
from growthcodes.growth import exact_integer_text
from growthcodes.seeds import family_params, series_params

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, env=None, cwd=None, timeout=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "growthcodes", *args],
        capture_output=True,
        text=True,
        env=full_env,
        cwd=cwd,
        timeout=timeout,
    )


def report_of(proc):
    report = json.loads(proc.stdout)
    schema = json.loads(
        resources.files("growthcodes.schemas").joinpath("report.schema.json").read_text()
    )
    jsonschema.validate(report, schema)
    return report


def test_seed_matrix_command(tmp_path):
    out = tmp_path / "a1.txt"
    proc = run_cli("seed-matrix", "--i", "1", "--field", "2", "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text() == "2 2 2\n0 1\n1 0\n"


def test_seed_matrix_gf3(tmp_path):
    out = tmp_path / "a2.txt"
    assert run_cli("seed-matrix", "--i", "2", "--field", "3", "--out", str(out)).returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "3 4 4"
    assert all(c in "012 " for c in " ".join(lines[1:]))


def test_seed_matrix_usage_error():
    assert run_cli("seed-matrix", "--i", "0", "--field", "2", "--out", "x").returncode == 2


def test_build_family_and_verify(tmp_path):
    out = tmp_path / "b21.txt"
    assert (
        run_cli(
            "build", "--family", "family", "--i", "2", "--j", "1", "--field", "2",
            "--out", str(out),
        ).returncode
        == 0
    )
    assert out.read_text().splitlines()[0] == "2 16 4"
    proc = run_cli("verify", "--in", str(out), "--checks", "params:16,4,4,singleton")
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["pass"] and len(report["checks"]) == 2


def test_build_rm(tmp_path):
    out = tmp_path / "rm31.txt"
    assert run_cli("build", "--family", "rm", "--m", "3", "--r", "1", "--out", str(out)).returncode == 0
    assert out.read_text().splitlines()[0] == "2 8 4"


def test_build_series_params_only(tmp_path):
    out = tmp_path / "series2.json"
    assert run_cli("build", "--family", "series", "--i", "2", "--out", str(out)).returncode == 0
    payload = json.loads(out.read_text())
    assert payload["materializable"] is False
    assert payload["resolved_steps"] == 19
    assert payload["declared_steps"] == 11
    assert payload["params"]["k"] == 24
    assert payload["kd_over_n"] == {"num": 4, "den": 1}
    assert payload["declared_kd_over_n"] == {"num": 8, "den": 3}


def test_build_family_past_the_materialization_budget_writes_params(tmp_path):
    # 30 x 682,080 int64 cells: n is small, but the generator is over budget.
    out = tmp_path / "family_14_3.json"
    proc = run_cli("build", "--family", "family", "--i", "14", "--j", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    want = family_params(14, 3)
    assert json.loads(out.read_text()) == {
        "family": "family",
        "seed_index": 14,
        "steps": 3,
        "materializable": False,
        "params": {"n": want.n, "k": want.k, "d": want.d, "u": want.u},
    }


def test_build_series_materialized(tmp_path):
    out = tmp_path / "series1.txt"
    assert run_cli("build", "--family", "series", "--i", "1", "--out", str(out)).returncode == 0
    assert out.read_text().splitlines()[0] == "2 26880 8"


def test_build_series_runs_no_distance_search(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("build ran a distance search")

    for module in (gc_code, construct, growth, seeds, cli):
        monkeypatch.setattr(module, "min_distance_exhaustive", refuse)
    out = tmp_path / "series1.txt"
    assert cli.main(["build", "--family", "series", "--i", "1", "--field", "7", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "7 26880 8"


def test_verify_failing_check_exits_1(tmp_path):
    out = tmp_path / "c2.txt"
    run_cli("build", "--family", "seed", "--i", "2", "--field", "2", "--out", str(out))
    proc = run_cli("verify", "--in", str(out), "--checks", "params:4,3,2")
    assert proc.returncode == 1
    assert report_of(proc)["pass"] is False


def test_verify_tampered_file_exits_2(tmp_path):
    out = tmp_path / "c2.txt"
    run_cli("build", "--family", "seed", "--i", "2", "--field", "3", "--out", str(out))
    lines = out.read_text().splitlines()
    lines[1] = "0 0 0 0"
    tampered = tmp_path / "tampered.txt"
    tampered.write_text("\n".join(lines) + "\n")
    proc = run_cli("verify", "--in", str(tampered), "--checks", "distance")
    assert proc.returncode == 2
    assert "rank" in proc.stderr


def test_verify_field_past_int64_exactness_exits_2(tmp_path):
    src = tmp_path / "big.txt"
    src.write_text(f"{(1 << 61) - 1} 2 1\n1 2\n")
    proc = run_cli("verify", "--in", str(src), "--checks", "distance")
    assert proc.returncode == 2
    assert "too large" in proc.stderr


def test_verify_budget_env_exits_2(tmp_path):
    out = tmp_path / "c2.txt"
    run_cli("build", "--family", "seed", "--i", "2", "--field", "3", "--out", str(out))
    proc = run_cli(
        "verify", "--in", str(out), "--checks", "distance", env={"GROWTHCODES_BUDGET": "4"}
    )
    assert proc.returncode == 2
    assert "budget" in proc.stderr


def test_growth_searches_its_base_under_the_budget_env(tmp_path):
    base, out = tmp_path / "s23.txt", tmp_path / "t.csv"
    run_cli("build", "--family", "seed", "--i", "2", "--field", "3", "--out", str(base))
    args = ("growth", "--family", "repetition", "--in", str(base), "--max-index", "2", "--out", str(out))
    proc = run_cli(*args, env={"GROWTHCODES_BUDGET": "4"})
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr and "budget" in proc.stderr
    assert not out.exists()
    # 3^3 messages fit a budget of 27
    assert run_cli(*args, env={"GROWTHCODES_BUDGET": "27"}).returncode == 0
    assert out.read_text().splitlines()[1].endswith(",true")


def test_verify_bounded_check(tmp_path):
    out = tmp_path / "c3.txt"
    run_cli("build", "--family", "seed", "--i", "3", "--field", "2", "--out", str(out))
    proc = run_cli("verify", "--in", str(out), "--checks", "distance,params:6,5,1,bounded:5")
    assert proc.returncode == 0
    names = [c["name"] for c in report_of(proc)["checks"]]
    assert names == ["distance", "params", "bounded"]


def test_verify_searches_once_for_every_check(tmp_path, monkeypatch, capsys):
    out = tmp_path / "c3.txt"
    assert cli.main(["build", "--family", "seed", "--i", "3", "--field", "2", "--out", str(out)]) == 0
    calls = []
    real = cli.min_distance_exhaustive
    monkeypatch.setattr(cli, "min_distance_exhaustive", lambda code, **kw: calls.append(1) or real(code, **kw))
    checks = "distance,params:6,5,1,singleton,bounded:5"
    assert cli.main(["verify", "--in", str(out), "--checks", checks]) == 0
    assert calls == [1]
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"]] == ["distance", "params", "singleton", "bounded"]


def test_verify_unknown_check(tmp_path):
    out = tmp_path / "c2.txt"
    run_cli("build", "--family", "seed", "--i", "2", "--field", "2", "--out", str(out))
    assert run_cli("verify", "--in", str(out), "--checks", "nonsense").returncode == 2


def test_verify_bounded_needs_a_positive_weight(tmp_path):
    out = tmp_path / "c2.txt"
    run_cli("build", "--family", "seed", "--i", "2", "--field", "2", "--out", str(out))
    proc = run_cli("verify", "--in", str(out), "--checks", "bounded:0")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: bounded check needs one positive integer: bounded:u"]


@pytest.mark.parametrize(
    "args",
    [
        ("build", "--family", "family", "--i", "1", "--j", "0", "--out", "OUT"),
        ("build", "--family", "rm", "--m", "3", "--r", "5", "--out", "OUT"),
        # 4096 x 2^13 = 2^25 int64 cells: past the materialization budget.
        ("build", "--family", "rm", "--m", "13", "--r", "6", "--out", "OUT"),
        ("growth", "--family", "seed-series", "--max-index", "0", "--out", "OUT"),
        ("growth", "--family", "rm-diagonal", "--max-index", "0", "--out", "OUT"),
        ("growth", "--family", "seed-family", "--i", "1", "--max-index", "3", "--out", "OUT"),
        ("verify", "--in", "BAD", "--checks", "distance"),
        ("verify", "--in", "HUGE", "--checks", "distance"),
    ],
)
def test_out_of_range_input_exits_2_with_one_line(tmp_path, args):
    out, bad, huge = tmp_path / "out", tmp_path / "bad.txt", tmp_path / "huge.txt"
    bad.write_text("2 -3 0\n")
    # A header whose n (10^12) no row matches: refused before any allocation.
    huge.write_text("2 1000000000000 1\n1\n")
    proc = run_cli(*(str({"OUT": out, "BAD": bad, "HUGE": huge}.get(a, a)) for a in args))
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_growth_unknown_family_exits_2():
    assert run_cli("growth", "--family", "nope", "--max-index", "2").returncode == 2


def test_growth_seed_series_matches_golden(tmp_path):
    out = tmp_path / "t.csv"
    assert (
        run_cli(
            "growth", "--family", "seed-series", "--max-index", "5", "--format", "csv",
            "--out", str(out),
        ).returncode
        == 0
    )
    assert out.read_bytes() == (GOLDEN / "seed_series_5.csv").read_bytes()


def test_growth_and_build_past_the_int_str_digit_limit(tmp_path):
    # Member 20 of the headline series has parameters of more than 4300 digits.
    member = series_params(20)
    table = tmp_path / "series20.csv"
    proc = run_cli("growth", "--family", "seed-series", "--max-index", "20", "--out", str(table))
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(table.read_text())))
    assert [r["index"] for r in rows] == [str(i) for i in range(1, 21)]
    payload = tmp_path / "series20.json"
    proc = run_cli("build", "--family", "series", "--i", "20", "--out", str(payload))
    assert proc.returncode == 0, proc.stderr
    with exact_integer_text():
        assert len(str(member.params.n)) > 4300
        assert (rows[-1]["n"], rows[-1]["d"]) == (str(member.params.n), str(member.params.d))
        params = json.loads(payload.read_text())["params"]
    assert (params["n"], params["k"], params["d"]) == (member.params.n, member.params.k, member.params.d)


@pytest.mark.parametrize(
    "error,code",
    [(RuntimeError("boom"), 2), (VerificationError("formula disagrees"), 1)],
)
def test_main_maps_errors_to_exit_codes(monkeypatch, capsys, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "growth_table", fail)
    assert cli.main(["growth", "--family", "rm-third", "--max-index", "2"]) == code
    assert str(error) in capsys.readouterr().err


def test_growth_rm_diagonal_matches_golden(tmp_path):
    out = tmp_path / "t.json"
    assert (
        run_cli(
            "growth", "--family", "rm-diagonal", "--max-index", "3", "--format", "json",
            "--out", str(out),
        ).returncode
        == 0
    )
    assert out.read_bytes() == (GOLDEN / "rm_diagonal_3.json").read_bytes()
    schema = json.loads(
        resources.files("growthcodes.schemas").joinpath("growth.schema.json").read_text()
    )
    jsonschema.validate(json.loads(out.read_text()), schema)


def test_growth_composition_needs_base(tmp_path):
    assert run_cli("growth", "--family", "repetition", "--max-index", "2").returncode == 2
    base = tmp_path / "base.txt"
    base.write_text("2 4 2\n1 1 0 0\n0 0 1 1\n")
    proc = run_cli(
        "growth", "--family", "repetition", "--max-index", "3", "--in", str(base),
        "--format", "csv",
    )
    assert proc.returncode == 0
    rows = proc.stdout.splitlines()
    assert [r.split(",")[6] for r in rows[1:]] == ["1", "1", "1"]


def test_construct_smallest(tmp_path):
    src = tmp_path / "rep.txt"
    src.write_text("2 2 1\n1 1\n")
    out = tmp_path / "stepped.txt"
    proc = run_cli("construct", "--in", str(src), "--steps", "1", "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text() == "2 4 2\n0 0 1 1\n1 1 0 0\n"
    report = report_of(proc)
    bound = next(c for c in report["checks"] if c["name"] == "distance_lower_bound")
    assert bound["actual"] == 2 and bound["pass"]


def test_construct_refuses_a_huge_step_count_at_once(tmp_path):
    # The refusal forms at most 25 factors of n, not 10^9 of them.
    src = tmp_path / "s2.txt"
    src.write_text(gc_code.format_generator(seeds.seed_code(make_field(2), 2, verify=False)))
    out = tmp_path / "never.txt"
    proc = run_cli("construct", "--in", str(src), "--steps", "1000000000", "--out", str(out), timeout=30)
    assert proc.returncode == 2
    assert "budget" in proc.stderr and not out.exists()


def test_construct_bounded_input_gets_exact_prediction(tmp_path):
    src = tmp_path / "c2.txt"
    run_cli("build", "--family", "seed", "--i", "2", "--field", "2", "--out", str(src))
    out = tmp_path / "deep.txt"
    proc = run_cli("construct", "--in", str(src), "--steps", "5", "--out", str(out))
    assert proc.returncode == 0
    report = report_of(proc)
    exact = next(c for c in report["checks"] if c["name"] == "distance_exact_prediction")
    assert exact["expected"] == 6720 and exact["actual"] == 6720 and exact["pass"]
    assert report["params"] == {"n": 26880, "k": 8, "d": 6720, "u": 7560}
    assert out.read_text().splitlines()[0] == "2 26880 8"


def test_construct_unbounded_input_lower_bound_only(tmp_path):
    # fixed [4, 2, 2] code with basis weights 3 and 2: only the lower-bound path
    src = tmp_path / "mixed.txt"
    src.write_text("2 4 2\n1 1 1 0\n0 0 1 1\n")
    out = tmp_path / "stepped.txt"
    proc = run_cli("construct", "--in", str(src), "--steps", "1", "--out", str(out))
    assert proc.returncode == 0
    report = report_of(proc)
    names = [c["name"] for c in report["checks"]]
    assert names == ["distance_lower_bound"]
    assert report["params"] is None
    assert len(report["notes"]) == 1
    assert report["checks"][0]["expected"] == ">= 4"  # k * d, with d = 2
    # two steps: the bound is d * k * (k + 1)
    proc = run_cli("construct", "--in", str(src), "--steps", "2", "--out", str(out))
    assert proc.returncode == 0
    report = report_of(proc)
    assert [c["name"] for c in report["checks"]] == ["distance_lower_bound"]
    assert report["checks"][0]["expected"] == ">= " + str(2 * 2 * 3)
    assert report["checks"][0]["pass"]


@pytest.mark.parametrize(
    "text,steps,d",
    [
        # [6, 3, 3] with basis weights 3, 3, 3 and a basis sum of weight 3: not
        # bounded (3 < 3(1 + 1/3)), yet the prediction is exact at every step
        ("2 6 3\n1 1 0 1 0 0\n0 1 1 0 0 1\n1 0 0 0 1 1\n", 1, 9),
        ("2 6 3\n1 1 0 1 0 0\n0 1 1 0 0 1\n1 0 0 0 1 1\n", 2, 36),
        # [6, 2, 2], 3-bounded for one step only; d = 18, not the lower bound 12
        ("2 6 2\n1 1 1 0 0 0\n0 1 1 1 0 0\n", 2, 18),
    ],
)
def test_construct_uniform_input_gets_exact_prediction_at_any_step(tmp_path, text, steps, d):
    src = tmp_path / "uniform.txt"
    src.write_text(text)
    out = tmp_path / "stepped.txt"
    proc = run_cli("construct", "--in", str(src), "--steps", str(steps), "--out", str(out))
    assert proc.returncode == 0
    report = report_of(proc)
    assert [c["name"] for c in report["checks"]] == ["distance_lower_bound", "distance_exact_prediction"]
    exact = report["checks"][1]
    assert exact["expected"] == exact["actual"] == d and exact["pass"]
    assert report["params"]["d"] == d and "notes" not in report


def test_round_trip_is_byte_exact(tmp_path):
    src = tmp_path / "c.txt"
    run_cli("build", "--family", "seed", "--i", "4", "--field", "5", "--out", str(src))
    first = src.read_bytes()
    copied = tmp_path / "copy.txt"
    proc = run_cli("construct", "--in", str(src), "--steps", "0", "--out", str(copied))
    assert proc.returncode == 0
    assert copied.read_bytes() == first


def test_outputs_deterministic_across_runs(tmp_path):
    outputs = []
    for run in range(3):
        out = tmp_path / f"g{run}.csv"
        assert (
            run_cli(
                "growth", "--family", "seed-family", "--max-index", "4", "--i", "2",
                "--format", "csv", "--out", str(out),
            ).returncode
            == 0
        )
        outputs.append(out.read_bytes())
    assert len(set(outputs)) == 1
