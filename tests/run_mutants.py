"""Run the kept mutation checks of tests/mutants.json.

Each mutant is one exact source replacement and the tier-1 test file that
must fail under it. For each one the whole repository is copied to a
temporary directory (pytest's ``pythonpath = ["src"]`` then imports the
mutated package of the copy, not this one), the replacement is applied and
``pytest -x -q -p no:cacheprovider`` runs on the named file there.

The run fails when a mutant survives (its test file passes), when its
``find`` text does not occur exactly once in its file (update the mutant,
do not drop it), or when pytest ends in anything but test failures, such as
a collection error.

Usage, from anywhere: ``python tests/run_mutants.py [NAME ...]``; names
select mutants by substring, and no name runs them all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "_out")


def load(selected: list[str]) -> list[dict]:
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))
    return [m for m in mutants if not selected or any(s in m["name"] for s in selected)]


def check_find(mutant: dict) -> str | None:
    """None when the mutant's text occurs exactly once, else the problem."""
    count = (ROOT / mutant["file"]).read_text(encoding="utf-8").count(mutant["find"])
    if count != 1:
        return f"its find text occurs {count} times in {mutant['file']}"
    return None


def run(mutant: dict) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        target = copy / mutant["file"]
        target.write_text(
            target.read_text(encoding="utf-8").replace(mutant["find"], mutant["replace"]), encoding="utf-8"
        )
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", mutant["test"]],
            cwd=copy,
            env=env,
            capture_output=True,
            text=True,
        )
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"


def main(argv: list[str]) -> int:
    mutants = load(argv)
    if not mutants:
        print("no mutant matches", file=sys.stderr)
        return 2
    bad = [(m["name"], problem) for m in mutants if (problem := check_find(m))]
    for name, problem in bad:
        print(f"STALE     {name}: {problem}")
    if bad:
        return 1
    failed = 0
    for mutant in mutants:
        start = time.perf_counter()
        outcome = run(mutant)
        failed += outcome != "killed"
        seconds = time.perf_counter() - start
        print(f"{outcome.split(':')[0].upper():9} {mutant['name']} ({mutant['test']}, {seconds:.1f} s)")
        if outcome.startswith("error"):
            print(outcome)
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
