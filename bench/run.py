#!/usr/bin/env python3
"""growthcodes benchmark: one workload per run, in a fresh process.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/`` of that
checkout and the CLI is run as ``python -m growthcodes`` with the same
``src/`` on PYTHONPATH. Nothing is installed.

Workloads (see workloads.py for the exact inputs):

* params-exact: big-integer parameter formulas (``seeds``, ``construct``,
  ``reedmuller``, ``growth`` tables), no materialization.
* chain-verify: cyclic-stacking chain members built and searched exhaustively
  over GF(2, 3, 5, 7).
* search-mix: codes the construction does not make: Reed-Muller codes through
  the GF(2) Gray-code engine, support search on high-rate codes, and 300 small
  random codes where per-call set-up dominates. Its random codes come from
  ``--seed``; the other workloads have fixed inputs.
* cli-session: the ``growthcodes`` command as subprocesses with default flags.

A run sets up, then repeats whole passes over the workload's ops for
``--seconds`` (at least one pass; no pass starts that would overrun). Every
op's result is checked against an independent reference outside the timed
region; a mismatch, an exception or an unexpected exit code fails the op and
the run continues.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median of five fresh interpreters, each from spawn until it has
  imported the library, generated the inputs and loaded the goldens;
* ``wall_s``: time for one pass, the sum over ops;
* ``max_verdict_s``: the slowest op;
* ``peak_rss_mib``: peak resident memory of this process, or of the largest
  CLI child on cli-session.

Times are in reference-host seconds. A short host probe (hostprobe.py: a
fresh interpreter for set-up and cli-session, a fixed compute task for the
other workloads) runs right before every op and every set-up sample. An op
counts as the median over the run's passes of its time divided by the pass's
median probe time, times the probe's reference time; a set-up sample is
divided by its own probe. A shared host's speed drifts by 20-50% over tens of
seconds and this cancels most of it. The unscaled pass time is printed as
``raw wall_s``.

With ``--trace 1`` it wraps the public functions of ``seeds``, ``construct``,
``code``, ``reedmuller`` and ``growth`` and each CLI call in spans, writes the
spans to ``bench/_out/`` at exit and reports per-layer metrics (medians over
passes): busy and self time per layer and per named function, call counts,
work counts derived from the inputs (codewords, support candidates,
coordinates, bytes), throughput, ``process.cpu_s``, ``bench.check_s`` and the
estimated ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
WORKLOADS = ("params-exact", "chain-verify", "search-mix", "cli-session")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def preflight() -> None:
    """Exit 2 unless this is a checkout with the library and its goldens."""
    needed = [ROOT / "src" / "growthcodes" / "__init__.py", BENCH / "reference.json"]
    needed += [ROOT / "tests" / "golden" / name for name in ("rm_third_series.json", "rm_diagonal_3.json", "seed_series_5.csv")]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a growthcodes checkout, missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


def import_library():
    # At most nproc threads for any native pool numpy might start.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc()))
    sys.path.insert(0, str(ROOT / "src"))
    import growthcodes

    if Path(growthcodes.__file__).resolve().parent != ROOT / "src" / "growthcodes":
        print(f"error: imported growthcodes from {growthcodes.__file__}, not this checkout", file=sys.stderr)
        sys.exit(2)
    return growthcodes


def source_fingerprint() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    info = {"source_sha256": digest.hexdigest()}
    if (ROOT / ".git").exists():
        try:
            info["commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def measure_setup(workload: str, seed: int, spawn_probe) -> list[float]:
    """Per sample: seconds from spawning a fresh interpreter to the point
    where its workload inputs are built, divided by the seconds of a spawn
    probe timed right before it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = spawn_probe()
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
        started = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr[-500:]}")
        samples.append((float(done.stdout.split()[-1]) - started) / probe)
    return samples


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(ops, tracer, workloads_mod, workdir: Path, paired_probe=None) -> dict:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    first_span = len(tracer.spans) if tracer else 0
    cpu_start = cpu_seconds()
    times, failures, counts, probe_times = [], [], {}, []
    check_s = 0.0
    exit_nonzero = 0
    for index, op in enumerate(ops):
        if paired_probe is not None:
            probe_times.append(paired_probe())
        started = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                tracer.op_id = index
                inner = (lambda op=op: tracer.span(op.span, op.run)) if op.span else op.run
                result = tracer.span(f"op:{op.engine}", inner)
            error = None
        except Exception as exc:  # a crashing op fails; the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - started)
        checked = time.perf_counter()
        if error is None:
            if isinstance(result, workloads_mod.CliResult) and result.returncode != 0:
                exit_nonzero += 1
            try:
                error = op.check(result)
            except Exception as exc:  # an unreadable output is a failed check
                error = f"check raised {type(exc).__name__}: {exc}"
        check_s += time.perf_counter() - checked
        if error is not None:
            failures.append(f"{op.name}: {error}")
        for key, value in op.counts.items():
            counts[key] = counts.get(key, 0) + value
            if op.engine:
                counts[f"{key}.{op.engine}"] = counts.get(f"{key}.{op.engine}", 0) + value
    return {
        "times": times,
        "probe_times": probe_times,
        "failures": failures,
        "counts": counts,
        "check_s": check_s,
        "cpu_s": cpu_seconds() - cpu_start,
        "exit_nonzero": exit_nonzero,
        "spans": (first_span, len(tracer.spans) if tracer else 0),
    }


MDE = "code.min_distance_exhaustive"
SUPPORT = "code.min_distance_by_weight_search"
BUSY = (
    "seeds.series_params",
    "seeds.family_params",
    "construct.predict_params",
    "reedmuller.rm_third_series",
    "growth.growth_table",
    "growth.records_to_csv",
    "growth.records_to_json",
    "seeds.family_code",
    "construct.check_bounded",
    MDE,
    "reedmuller.rm_generator",
    SUPPORT,
)
CLI_SPANS = ("startup", "build", "verify", "construct", "growth")


def layer_metrics(summary, passed: dict, span_cost: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    by_name, by_layer, by_kind = summary
    counts = passed["counts"]

    def busy(name):
        return by_name[name]["busy_s"] if name in by_name else 0.0

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    def kind_busy(kind, name=MDE):
        return by_kind.get((kind, name), (0.0, 0))[0]

    m = {}
    for name in BUSY:
        m[f"{name}.busy_s"] = (busy(name), "s")
    for layer in tracing.LAYERS:
        m[f"{layer}.busy_s"] = (by_layer[layer]["busy_s"] if layer in by_layer else 0.0, "s")
        m[f"{layer}.self_s"] = (by_layer[layer]["self_s"] if layer in by_layer else 0.0, "s")
    m["seeds.family_params.calls"] = (by_name["seeds.family_params"]["calls"] if "seeds.family_params" in by_name else 0, "count")
    m["growth.growth_table.rows"] = (counts.get("rows", 0), "count")
    m["growth.bytes_out"] = (counts.get("bytes_out", 0), "B")
    m["seeds.family_code.coords"] = (counts.get("coords", 0), "count")
    m["seeds.family_code.coords_per_s"] = (rate(counts.get("coords", 0), busy("seeds.family_code")), "1/s")
    m[f"{MDE}.calls"] = (by_name[MDE]["calls"] if MDE in by_name else 0, "count")
    m[f"{MDE}.codewords"] = (counts.get("codewords", 0), "count")
    for engine in ("gf2", "gfp"):
        m[f"{MDE}.{engine}.codewords_per_s"] = (rate(counts.get(f"codewords.{engine}", 0), kind_busy(engine)), "1/s")
    small_calls = by_kind.get(("small", MDE), (0.0, 0))[1]
    m[f"{MDE}.small.us_per_call"] = (kind_busy("small") / small_calls * 1e6 if small_calls else 0.0, "us")
    m[f"{SUPPORT}.candidates"] = (counts.get("candidates", 0), "count")
    m[f"{SUPPORT}.candidates_per_s"] = (rate(counts.get("candidates", 0), busy(SUPPORT)), "1/s")
    for name in CLI_SPANS:
        m[f"cli.{name}.wall_s"] = (busy(f"cli.{name}"), "s")
    m["cli.bytes_written"] = (counts.get("bytes_written", 0), "B")
    m["cli.exit_nonzero"] = (passed["exit_nonzero"], "count")
    m["process.cpu_s"] = (passed["cpu_s"], "s")
    m["bench.check_s"] = (passed["check_s"], "s")
    first, last = passed["spans"]
    m["trace.overhead_s"] = ((last - first) * span_cost, "s")
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    return {
        name: {"value": statistics.median(p[name][0] for p in per_pass), "unit": per_pass[0][name][1]}
        for name in per_pass[0]
    }


def run_workload(args) -> int:
    growthcodes = import_library()
    import numpy

    import hostprobe
    import workloads as workloads_mod

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    ops = workloads_mod.build(args.workload, args.seed, ROOT, workdir)
    if args.setup_only:
        print(time.monotonic())
        return 0

    tracer = None
    span_cost = 0.0
    if args.trace:
        span_cost = tracing.per_call_cost()
        tracer = tracing.Tracer()
        tracer.install()
    passes = []
    probe_kind = "spawn" if args.workload == "cli-session" else "compute"
    probe = None if args.trace else hostprobe.PROBES[probe_kind]
    started = time.perf_counter()
    longest = 0.0
    try:
        # Whole passes only: stop before a pass that would overrun --seconds.
        while True:
            pass_started = time.perf_counter()
            passes.append(run_pass(ops, tracer, workloads_mod, workdir, probe))
            longest = max(longest, time.perf_counter() - pass_started)
            if time.perf_counter() - started + longest > args.seconds:
                break
    finally:
        if workdir.exists():
            shutil.rmtree(workdir)
        if tracer is not None:
            tracer.uninstall()

    if args.workload == "cli-session":
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Each op's median over the run's passes of its time relative to the
    # pass's median probe (see the module docstring); plain seconds when
    # tracing, which runs no probes.
    if args.trace:
        op_seconds = [statistics.median(p["times"][i] for p in passes) for i in range(len(ops))]
    else:
        reference = hostprobe.REFERENCE_S[probe_kind]
        op_seconds = [
            statistics.median(p["times"][i] / statistics.median(p["probe_times"]) for p in passes) * reference
            for i in range(len(ops))
        ]

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "growthcodes": growthcodes.__version__,
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        **source_fingerprint(),
    }

    if args.trace:
        per_pass = [
            layer_metrics(tracing.summarize(tracer.spans[: p["spans"][1]], p["spans"][0]), p, span_cost)
            for p in passes
        ]
        metrics = median_metrics(per_pass)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_path, provenance)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        setup = measure_setup(args.workload, args.seed, hostprobe.spawn)
        raw_wall = sum(statistics.median(p["times"][i] for p in passes) for i in range(len(ops)))
        print(f"raw wall_s {raw_wall:.6g} s (median pass, before probe scaling)")
        metrics = {
            "setup_s": {"value": statistics.median(setup) * hostprobe.REFERENCE_S["spawn"], "unit": "s"},
            "wall_s": {"value": sum(op_seconds), "unit": "s"},
            "max_verdict_s": {"value": max(op_seconds), "unit": "s"},
            "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
        }

    attempted = len(ops) * len(passes)
    failures = [f for p in passes for f in p["failures"]]
    print("provenance " + json.dumps(provenance))
    print(f"slowest op: {ops[op_seconds.index(max(op_seconds))].name}")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"failed_share {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    if passes[0]["exit_nonzero"]:
        print(f"nonzero CLI exits per pass: {passes[0]['exit_nonzero']} (documented defects, accepted by their checks)")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        done = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S + 60)
        status = status or done.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    preflight()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
