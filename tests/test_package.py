"""The package's lazy exports, and the modules each CLI command loads."""

import importlib
import inspect
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import growthcodes

# Every public name of the package, by the module that defines it.
EXPORTS = {
    "code": (
        "DEFAULT_ENUMERATION_BUDGET MATERIALIZATION_BUDGET LinearCode direct_sum format_generator "
        "min_distance_by_weight_search min_distance_exhaustive new_code parse_generator rate "
        "read_generator_file repetition singleton_check write_generator_file"
    ),
    "construct": "BoundednessReport ChainParams check_bounded construction_step iterate max_exact_steps predict_params",
    "errors": (
        "BudgetExceededError CompositeModulusError DependentBasisError DivisionByZeroError FieldMismatchError "
        "FieldTooLargeError GeneratorFormatError GrowthCodesError LengthMismatchError NotSquareError "
        "RangeViolationError ShapeMismatchError UnknownFamilyError VerificationError"
    ),
    "field": "FieldElement PrimeField is_prime make_field",
    "growth": "GrowthRecord growth_table records_to_csv records_to_json sqrt_bracket_check",
    "linalg": "FieldMatrix FieldVector determinant hamming_distance rank stack_blocks weight",
    "params": "CodeParams",
    "reedmuller": "ThirdSeriesRecord binomial_sum rm_generator rm_kd_over_n rm_params rm_third_series",
    "seeds": (
        "SeedMatrices SeriesMember build_seed_matrices family_code family_params max_family_steps "
        "seed_code series_code series_params"
    ),
}
OWNER = {name: module for module, names in EXPORTS.items() for name in names.split()}


def test_every_export_resolves_to_the_object_of_its_defining_module():
    assert len(OWNER) == 67
    assert sorted(growthcodes.__all__) == sorted(OWNER)
    assert set(dir(growthcodes)) >= set(OWNER) | {"__version__"}
    for name, module_name in OWNER.items():
        module = importlib.import_module(f"growthcodes.{module_name}")
        value = getattr(growthcodes, name)
        assert value is getattr(module, name), name
        # defined there, not re-exported: the benchmark's tracer wraps each
        # public function in the module named by its __module__
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, name
    namespace = {}
    exec("from growthcodes import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(OWNER)
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        growthcodes.missing


def _loaded_after(*argv, cwd) -> set[str]:
    """numpy and the growthcodes modules loaded by one ``cli.main`` call in a
    fresh interpreter."""
    script = "\n".join(
        [
            "import sys",
            "from growthcodes import cli",
            "try:",
            "    code = cli.main(sys.argv[1:])",
            "except SystemExit as exc:",
            "    code = exc.code",
            "assert code == 0, code",
            "loaded = [m for m in sys.modules if m.split('.')[0] in ('numpy', 'growthcodes')]",
            "print(' '.join(sorted(loaded)))",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_commands_load_only_the_modules_they_run(tmp_path):
    # --version starts nothing past the parser
    assert _loaded_after("--version", cwd=tmp_path) == {"growthcodes", "growthcodes.cli", "growthcodes.errors"}
    # the Reed-Muller third series is big-integer formulas only
    loaded = _loaded_after("growth", "--family", "rm-third", "--max-index", "5", "--out", "t.csv", cwd=tmp_path)
    assert "numpy" not in loaded
    assert (tmp_path / "t.csv").read_text() == growthcodes.records_to_csv(growthcodes.growth_table("rm-third", 5))
    loaded = _loaded_after("build", "--family", "rm", "--m", "4", "--r", "1", "--out", "rm.txt", cwd=tmp_path)
    assert "numpy" in loaded and "growthcodes.seeds" not in loaded
    loaded = _loaded_after("verify", "--in", "rm.txt", "--checks", "params:16,5,8", cwd=tmp_path)
    assert not loaded & {"growthcodes.growth", "growthcodes.seeds", "growthcodes.reedmuller"}


def _version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def test_declared_floors_match_the_ci_floor_job():
    # The floor job is the one CI configuration that pins numpy: it must run
    # the oldest Python and numpy that pyproject.toml admits, and no job may
    # run a Python below that floor.
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    python_floor = project["requires-python"].removeprefix(">=")
    (numpy_floor,) = [dep.removeprefix("numpy>=") for dep in project["dependencies"] if dep.startswith("numpy")]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    pinned = re.findall(r'python-version: "([\d.]+)"\n\s*numpy: "numpy==([\d.]+)\.\*"', workflow)
    assert pinned == [(python_floor, numpy_floor)]
    assert workflow.count("numpy==") == 1
    pythons = re.findall(r'"(3\.\d+)"', workflow)
    assert pythons and min(map(_version, pythons)) == _version(python_floor)
