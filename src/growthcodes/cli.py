"""Command-line front end: build codes, verify parameters, apply the
construction, and export growth tables.

Exit codes: 0 all checks pass, 1 a mathematical check failed (a report row,
or a search result contradicting a proven bound), 2 usage, I/O, budget or
internal errors, including a distance search whose q^k messages and q^(n-k)
dual words both exceed the enumeration budget, and generator files over a
field GF(q) with q >= 2**16, where int64 arithmetic would no longer be
exact. ``build`` writes the code's generator file, or, for a family or
series member whose builder refuses it past the materialization budget, the
member's exact parameters as JSON; it searches no distance. Every distance
search runs serially in this process. All data outputs are deterministic;
timing lives only in the report field and never inside data files. The
enumeration budget can be overridden with the GROWTHCODES_BUDGET environment
variable. Each command imports the library modules it runs when it runs, so
``--version`` and ``growth --family rm-third`` start without numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import FAMILIES, __version__
from .errors import BudgetExceededError, GrowthCodesError, VerificationError

CHECK_FAILED = 1
USAGE_ERROR = 2


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _budget_from_env() -> int:
    from .code import DEFAULT_ENUMERATION_BUDGET

    raw = os.environ.get("GROWTHCODES_BUDGET")
    if raw is None:
        return DEFAULT_ENUMERATION_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise GrowthCodesError(f"GROWTHCODES_BUDGET must be an integer, got {raw!r}")
    if value < 1:
        raise GrowthCodesError(f"GROWTHCODES_BUDGET must be positive, got {value}")
    return value


def _params_dict(n, k, d, u=None) -> dict:
    return {"n": n, "k": k, "d": d, "u": u}


def _report(command: str, inputs: dict, params, checks: list[dict], started: float, notes=None) -> dict:
    report = {
        "command": command,
        "inputs": inputs,
        "params": params,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "timing": {"seconds": time.perf_counter() - started},
    }
    if notes:
        report["notes"] = notes
    return report


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _write_payload(path, payload: dict) -> None:
    from .growth import exact_integer_text

    with exact_integer_text(), open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def cmd_seed_matrix(args) -> int:
    from .code import _format_rows
    from .field import make_field
    from .seeds import build_seed_matrices

    field = make_field(args.field)
    matrices = build_seed_matrices(field, args.i)
    # A_i has determinant 1, so it is written as rows with no code built.
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_format_rows(field.p, matrices.a.array))
    return 0


def _params_payload(args) -> dict:
    """The exact parameters ``build`` writes, as JSON, for a chain member too
    large to build."""
    from .seeds import family_params, series_params

    if args.family == "family":
        params = family_params(args.i, args.j)
        return {
            "family": "family",
            "seed_index": args.i,
            "steps": args.j,
            "materializable": False,
            "params": _params_dict(params.n, params.k, params.d, params.u),
        }
    member = series_params(args.i)
    return {
        "family": "series",
        "index": args.i,
        "materializable": False,
        "params": _params_dict(member.params.n, member.params.k, member.params.d, member.params.u),
        "resolved_steps": member.resolved_steps,
        "declared_steps": member.declared_steps,
        "kd_over_n": {"num": member.kd_over_n.numerator, "den": member.kd_over_n.denominator},
        "declared_kd_over_n": {
            "num": member.declared_kd_over_n.numerator,
            "den": member.declared_kd_over_n.denominator,
        },
    }


def cmd_build(args) -> int:
    from .code import write_generator_file
    from .field import make_field

    field = make_field(args.field)
    if args.family == "rm":
        if args.m is None or args.r is None:
            raise GrowthCodesError("--family rm needs --m and --r")
        if args.field != 2:
            raise GrowthCodesError("Reed-Muller codes are binary; --field must be 2")
        from .reedmuller import rm_generator

        write_generator_file(rm_generator(args.m, args.r), args.out)
        return 0
    from .seeds import family_code, seed_code, series_code

    if args.family == "seed":
        if args.i is None:
            raise GrowthCodesError("--family seed needs --i")
        write_generator_file(seed_code(field, args.i), args.out)
        return 0
    if args.family == "family" and (args.i is None or args.j is None):
        raise GrowthCodesError("--family family needs --i and --j")
    if args.family == "series" and args.i is None:
        raise GrowthCodesError("--family series needs --i")
    try:
        code = family_code(field, args.i, args.j) if args.family == "family" else series_code(field, args.i)
    except BudgetExceededError:
        _write_payload(args.out, _params_payload(args))
    else:
        write_generator_file(code, args.out)
    return 0


def _parse_checks(text: str) -> list[tuple[str, list[int]]]:
    tokens = [t.strip() for t in text.split(",")]
    checks: list[tuple[str, list[int]]] = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if ":" in token:
            name, first = token.split(":", 1)
            try:
                args = [int(first)]
            except ValueError:
                raise GrowthCodesError(f"non-integer argument in check {token!r}")
        else:
            name, args = token, []
        if name == "params":
            while len(args) < 3:
                i += 1
                if i >= len(tokens):
                    raise GrowthCodesError("params check needs three integers: params:n,k,d")
                try:
                    args.append(int(tokens[i]))
                except ValueError:
                    raise GrowthCodesError(f"non-integer argument {tokens[i]!r} for params check")
        elif name == "bounded":
            if len(args) != 1 or args[0] < 1:
                raise GrowthCodesError("bounded check needs one positive integer: bounded:u")
        elif name in ("distance", "singleton"):
            if args:
                raise GrowthCodesError(f"check {name!r} takes no arguments")
        else:
            raise GrowthCodesError(f"unknown check {name!r}")
        checks.append((name, args))
        i += 1
    if not checks:
        raise GrowthCodesError("no checks requested")
    return checks


def cmd_verify(args) -> int:
    from .code import min_distance_exhaustive, read_generator_file, singleton_check

    started = time.perf_counter()
    budget = _budget_from_env()
    checks = _parse_checks(args.checks)
    code = read_generator_file(args.infile)
    d = min_distance_exhaustive(code, budget=budget)  # every check needs it
    rows: list[dict] = []
    for name, check_args in checks:
        if name == "distance":
            rows.append(
                {"name": "distance", "expected": "exhaustive search completes", "actual": d, "pass": True}
            )
        elif name == "params":
            actual = [code.n, code.k, d]
            rows.append(
                {"name": "params", "expected": check_args, "actual": actual, "pass": actual == check_args}
            )
        elif name == "bounded":
            from .construct import check_bounded

            report = check_bounded(code, check_args[0], budget=budget)
            rows.append(
                {
                    "name": "bounded",
                    "expected": f"{check_args[0]}-bounded",
                    "actual": {
                        "weights_ok": report.cond_weights_ok,
                        "sum_ok": report.cond_sum_ok,
                        "inequality_ok": report.cond_inequality_ok,
                        "d_used": report.d_used,
                    },
                    "pass": report.bounded,
                }
            )
        else:  # singleton
            rows.append(
                {
                    "name": "singleton",
                    "expected": f"d <= n-k+1 = {code.n - code.k + 1}",
                    "actual": d,
                    "pass": singleton_check(code.params()),
                }
            )
    report = _report(
        "verify",
        {"in": args.infile, "checks": args.checks},
        _params_dict(code.n, code.k, code.d),
        rows,
        started,
    )
    _emit(report)
    return 0 if report["pass"] else 1


def cmd_growth(args) -> int:
    base = None
    if args.family in ("direct-sum", "repetition"):
        if args.infile is None:
            raise GrowthCodesError(f"--family {args.family} needs --in with a base generator file")
        from .code import min_distance_exhaustive, read_generator_file

        base = read_generator_file(args.infile)
        # the table's formula rests on the base's distance: search it under the
        # caller's budget; row searches stay under VERIFY_MESSAGE_CAP
        min_distance_exhaustive(base, budget=_budget_from_env())
    if args.family == "seed-family" and args.i is None:
        raise GrowthCodesError("--family seed-family needs --i")
    from .growth import growth_table, records_to_csv, records_to_json

    records = growth_table(args.family, args.max_index, seed_index=args.i, base_code=base)
    text = records_to_csv(records) if args.format == "csv" else records_to_json(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_construct(args) -> int:
    from .code import min_distance_exhaustive, read_generator_file, write_generator_file
    from .construct import check_bounded, iterate_code, predict_params, rising_factorial

    started = time.perf_counter()
    budget = _budget_from_env()
    code = read_generator_file(args.infile)
    out_code = iterate_code(code, args.steps)
    write_generator_file(out_code, args.out)

    notes: list[str] = []
    rows: list[dict] = []
    params = None
    try:
        # The output has the larger dimension and redundancy: if it fits either
        # engine so does the input, so searching it first refuses before any
        # work whenever either search would be over budget.
        d_out = min_distance_exhaustive(out_code, budget=budget)
    except BudgetExceededError:
        notes.append("distance enumeration over budget; no brute-force comparison")
    else:
        d_in = min_distance_exhaustive(code, budget=budget)
        # Holds for every code: a nonzero message leaves at most one zero
        # block, so each step multiplies d by at least the current k.
        bound = d_in * rising_factorial(code.k, args.steps)
        rows.append(
            {
                "name": "distance_lower_bound",
                "expected": f">= {bound}",
                "actual": d_out,
                "pass": d_out >= bound,
            }
        )
        # predict_params is exact at every step for equal basis weights u
        # and a basis sum of minimum weight
        u = code.basis_weights()[0]
        basis = check_bounded(code, u, budget=budget)
        if basis.cond_weights_ok and basis.cond_sum_ok:
            prediction = predict_params(code.n, code.k, d_in, u, args.steps)
            params = _params_dict(prediction.n, prediction.k, prediction.d, prediction.u)
            exact = prediction.d
        elif args.steps and (code.k + 1) * d_in >= sum(basis.basis_weights):
            # the chain theorem's other case: d_s = u_s = W (k+1)...(k+s-1)
            exact = sum(basis.basis_weights) * rising_factorial(code.k + 1, args.steps - 1)
            params = _params_dict(out_code.n, out_code.k, exact, exact)
        else:
            notes.append("basis weights not all equal or basis sum not of minimum weight; lower-bound path only")
        if params is not None:
            rows.append(
                {"name": "distance_exact_prediction", "expected": exact, "actual": d_out, "pass": d_out == exact}
            )
    report = _report(
        "construct",
        {"in": args.infile, "steps": args.steps, "out": args.out},
        params,
        rows,
        started,
        notes=notes,
    )
    _emit(report)
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthcodes",
        description="Recursive linear-code constructions with exact parameter verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_seed = sub.add_parser("seed-matrix", help="write a seed matrix in generator format")
    p_seed.add_argument("--i", type=_positive_int, required=True)
    p_seed.add_argument("--field", type=_positive_int, default=2)
    p_seed.add_argument("--out", required=True)
    p_seed.set_defaults(func=cmd_seed_matrix)

    p_build = sub.add_parser("build", help="materialize a code or emit its exact parameters")
    p_build.add_argument("--family", choices=("seed", "family", "series", "rm"), required=True)
    p_build.add_argument("--i", type=_positive_int)
    p_build.add_argument("--j", type=_nonnegative_int)
    p_build.add_argument("--m", type=_positive_int)
    p_build.add_argument("--r", type=_nonnegative_int)
    p_build.add_argument("--field", type=_positive_int, default=2)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run checks against a generator file")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.add_argument("--checks", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_growth = sub.add_parser("growth", help="emit a kd/n growth table")
    p_growth.add_argument("--family", choices=FAMILIES, required=True)
    p_growth.add_argument("--max-index", type=_nonnegative_int, required=True)
    p_growth.add_argument("--format", choices=("csv", "json"), default="csv")
    p_growth.add_argument("--out")
    p_growth.add_argument("--i", type=_positive_int, help="seed index for --family seed-family")
    p_growth.add_argument("--in", dest="infile", help="base generator file for direct-sum/repetition")
    p_growth.set_defaults(func=cmd_growth)

    p_construct = sub.add_parser("construct", help="apply construction steps to a generator file")
    p_construct.add_argument("--in", dest="infile", required=True)
    p_construct.add_argument("--steps", type=_nonnegative_int, required=True)
    p_construct.add_argument("--out", required=True)
    p_construct.set_defaults(func=cmd_construct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except GrowthCodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        # Exit 1 means a mathematical check failed; a crash must not look like one.
        import traceback

        traceback.print_exc()
        print("internal error: see the traceback above", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
