"""Command-line interface.

Exit codes: 0 success, 1 failed verification, 2 infeasible LP, 3 parse error
(a usage error too: a missing or malformed argument or an unknown command),
4 size cap exceeded, 5 internal invariant failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import driver
from .curve import (
    all_intersecting_pairs,
    check_injective,
    find_crossing_pair,
    imbalance_curve,
    on_open_segment,
)
from .cycles import solve_even_cycle, solve_fractional
from .errors import CapExceededError, InvariantError, ParseError
from .graph import ColorProfile, even_cycle_from_string
from .instances import GenSpec, decimal_integer, generate_instance, parse_instance
from .oracle import exact_optimum, max_matching_size

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3
EXIT_CAP = 4
EXIT_INVARIANT = 5


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _answer_payload(positions, p: ColorProfile) -> dict:
    return {"matching": sorted(positions), "size": len(positions), "profile": p._asdict()}


def _print_answer(matching, size: str, p: ColorProfile) -> None:
    """The matching, size and profile lines of a human-readable answer."""
    print("matching:", " ".join(map(str, sorted(matching))))
    print(f"size: {size}")
    print(f"profile: red={p.red} blue={p.blue} yellow={p.yellow}")


def _report_payload(report: driver.SolveReport) -> dict:
    return {
        "matching": sorted(report.matching),
        "profile": report.profile._asdict(),
        "alpha_star": _frac_str(report.alpha_star),
        "face_class": report.face_class,
        "guarantees": {
            "size_bound": report.guarantee_ok[0],
            "red_exact": report.guarantee_ok[1],
            "blue_window": report.guarantee_ok[2],
        },
        "trace": list(report.trace),
    }


def _print_report(report: driver.SolveReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_report_payload(report)))
        return
    print(f"alpha_star: {report.alpha_star}")
    print(f"face: {report.face_class}")
    _print_answer(report.matching, str(len(report.matching)), report.profile)
    g = report.guarantee_ok
    print(f"guarantees: size_bound={g[0]} red_exact={g[1]} blue_window={g[2]}")
    print("trace:")
    for step in report.trace:
        print(f"  - {step}")


def _cmd_solve(args) -> int:
    graph, kr, kb = parse_instance(_read(args.file))
    report = driver.solve(graph, kr, kb)
    if report is None:
        if args.json:
            print(json.dumps({"status": "infeasible"}))
        else:
            print("infeasible")
        return EXIT_INFEASIBLE
    _print_report(report, args.json)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    graph, kr, kb = parse_instance(_read(args.file))
    best = exact_optimum(graph, kr, kb)
    alpha_prime = max_matching_size(graph)
    if args.json:
        payload = {
            "alpha_prime": alpha_prime,
            "optimum": sorted(best) if best is not None else None,
            "optimum_size": len(best) if best is not None else None,
        }
        print(json.dumps(payload))
    else:
        print(f"alpha_prime: {alpha_prime}")
        if best is None:
            print("optimum: none")
        else:
            print("optimum:", " ".join(map(str, sorted(best))))
            print(f"optimum_size: {len(best)}")
    return EXIT_OK


def _cmd_cycle(args) -> int:
    comp = even_cycle_from_string(args.colors.upper())
    positions = solve_even_cycle(comp, args.kr, args.kb)
    prof = comp.profile_of(positions)
    half = len(comp) // 2
    payload = _answer_payload(positions, prof)
    payload["certificate"] = {
        "size_at_least": half - 1,
        "size_ok": len(positions) >= half - 1,
        "red_exact": prof.red == args.kr,
        "blue_window": prof.blue in (args.kb - 1, args.kb),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        _print_answer(positions, f"{len(positions)} (guarantee >= {half - 1})", prof)
    return EXIT_OK


def _cmd_fractional(args) -> int:
    comp = even_cycle_from_string(args.colors.upper())
    kb = _fraction(args.kb)
    positions = solve_fractional(comp, args.kr, kb)
    prof = comp.profile_of(positions)
    if args.json:
        print(json.dumps(_answer_payload(positions, prof)))
    else:
        _print_answer(positions, str(len(positions)), prof)
    return EXIT_OK


def _cmd_curve(args) -> int:
    comp = even_cycle_from_string(args.colors.upper())
    poly = imbalance_curve(comp)
    p0 = comp.even_profile()
    q = (args.kr - p0.red, args.kb - p0.blue)
    injective = check_injective(poly)
    payload: dict = {
        "period_length": poly.period_length,
        "delta": list(poly.period_shift),
        "q": list(q),
        "injective": injective,
    }
    if args.points:
        payload["breakpoints"] = [list(p) for p in poly.points]
    on_open = on_open_segment(q, poly.points[0], poly.points[-1])
    pairs = None
    if args.pairs and on_open:
        pairs = all_intersecting_pairs(poly, q)
        payload["intersecting_pairs"] = [{"u": u, "v": v} for u, v in pairs]
    crossing = None
    if injective and on_open:
        try:
            cp = find_crossing_pair(poly, q)
            crossing = {
                "u": str(cp.u),
                "v": str(cp.v),
                "kind": cp.kind,
                "overlap_length": cp.overlap_length,
            }
        except ValueError:
            crossing = None  # q on the curve: no crossing defined
    payload["crossing"] = crossing
    if args.json:
        print(json.dumps(payload))
        return EXIT_OK
    print(f"period_length: {poly.period_length}")
    print(f"delta: {poly.period_shift}")
    print(f"q: {q}")
    print(f"injective: {injective}")
    if args.points:
        for i, p in enumerate(poly.points):
            print(f"point {i}: {p[0]} {p[1]}")
    if pairs is not None:
        for u, v in pairs:
            print(f"pair: u={u} v={v}")
    if crossing is not None:
        print(
            "crossing: u={u} v={v} kind={kind} overlap={overlap_length}".format(
                **crossing
            )
        )
    return EXIT_OK


def _cmd_gen(args) -> int:
    weights = tuple(_fraction(w) for w in args.weights.split(","))
    if len(weights) != 3:
        raise ParseError("weights must be three comma-separated numbers")
    spec = GenSpec(
        mode=args.mode,
        vertex_count=args.nodes,
        edge_density=_fraction(args.density),
        color_weights=weights,  # type: ignore[arg-type]
        seed=args.seed,
    )
    sys.stdout.write(generate_instance(spec))
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph, kr, kb = parse_instance(_read(args.file))
    # an id may have spaces around it; empty fields are skipped
    ids = [decimal_integer(t.strip()) for t in args.matching.split(",") if t.strip()]
    if None in ids:
        raise ParseError("matching must be comma-separated edge ids")
    report = driver.solve(graph, kr, kb)
    if report is None:
        print("infeasible")
        return EXIT_INFEASIBLE
    candidate = dataclasses.replace(report, matching=frozenset(ids), trace=())
    # the frozenset hides a repeated id, which validate_matching rejects
    ok = len(set(ids)) == len(ids) and driver.verify(graph, kr, kb, candidate)
    print("ok" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbymatch",
        description="Matchings with an exact red and near-exact blue edge count",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="brute-force optimum for an instance file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("cycle", help="solve a colored even cycle")
    p.add_argument("colors")
    p.add_argument("--kr", type=int, required=True)
    p.add_argument("--kb", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("fractional", help="cycle requirement with fractional blue")
    p.add_argument("colors")
    p.add_argument("--kr", type=int, required=True)
    p.add_argument("--kb", required=True, help="rational such as 2/3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fractional)

    p = sub.add_parser("curve", help="imbalance curve diagnostics for a cycle")
    p.add_argument("colors")
    p.add_argument("--kr", type=int, required=True)
    p.add_argument("--kb", type=int, required=True)
    p.add_argument("--points", action="store_true")
    p.add_argument("--pairs", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("gen", help="generate a deterministic instance")
    p.add_argument("--mode", choices=["random_graph", "random_cycle", "feasible_profile"], required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--density", default="1/4")
    p.add_argument("--weights", default="1,1,1")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="verify a matching against an instance")
    p.add_argument("file")
    p.add_argument("--matching", required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage message; its usage-error code, 2,
        # is EXIT_INFEASIBLE here, and --help exits 0
        if exc.code == 2:
            return EXIT_PARSE
        raise
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
