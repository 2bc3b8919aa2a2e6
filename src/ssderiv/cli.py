"""Command line front end: problem files in, canonical diffable reports out.

A problem file is flat `key: value` text, one entry per line; blank lines and
lines starting with '#' are skipped.  `vars` and `weights` appear once;
`images`, `phi`, `psi` and `query` may repeat, one expression per line:

    vars: x y
    weights: 1 -1
    images: x^2*y
    images: -x*y^2
    query: x*y + x

Exit codes: 0 success, 2 invalid input, 1 internal invariant violation.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Sequence

from .derivation import (
    DiagonalDerivation,
    GeneralDerivation,
    Inconclusive,
    LocallyFinite,
    NotLocallyFinite,
    conjugate,
    local_finiteness_probe,
    scalar_multiple_semisimple,
)
from .kernel import brute_force_kernel, kernel_generators_localized, kernel_in_B
from .laurent import LaurentPoly, ParseError, RingCtx, parse
from .numtheory import decimal_to_int, int_to_decimal
from .slices import build_slice

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2

_LIST_KEYS = ("images", "phi", "psi", "query")


class InputError(ValueError):
    """Invalid problem file or command usage; maps to exit code 2."""


@dataclass
class Problem:
    ctx: RingCtx
    weights: tuple[int, ...]
    images: tuple[LaurentPoly, ...] | None = None
    phi: tuple[LaurentPoly, ...] | None = None
    psi: tuple[LaurentPoly, ...] | None = None
    queries: tuple[LaurentPoly, ...] = ()

    @property
    def diagonal(self) -> DiagonalDerivation:
        return DiagonalDerivation(self.ctx, self.weights)

    @property
    def general(self) -> GeneralDerivation | None:
        if self.images is None:
            return None
        return GeneralDerivation(self.ctx, self.images)


@dataclass
class Report:
    """Deterministic command output: echo line, result lines, warnings."""

    command: str
    lines: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def render(self) -> str:
        parts = [f"command: {self.command}"]
        parts.extend(self.lines)
        parts.extend(f"warning: {w}" for w in self.warnings)
        return "\n".join(parts) + "\n"


def load_problem(path: str | Path) -> Problem:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}") from None

    entries: dict[str, list[tuple[int, str]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise InputError(f"{path}:{lineno}: expected 'key: value'")
        key, _, value = stripped.partition(":")
        key = key.strip()
        if key not in ("vars", "weights", *_LIST_KEYS):
            raise InputError(f"{path}:{lineno}: unknown key '{key}'")
        entries.setdefault(key, []).append((lineno, value.strip()))

    for key in ("vars", "weights"):
        if key not in entries:
            raise InputError(f"{path}: missing required '{key}:' line")
        if len(entries[key]) > 1:
            raise InputError(f"{path}: '{key}:' given more than once")

    try:
        ctx = RingCtx(tuple(entries["vars"][0][1].split()))
    except ValueError as exc:
        raise InputError(f"{path}: bad vars line: {exc}") from None

    lineno, raw_weights = entries["weights"][0]
    try:
        weights = tuple(map(decimal_to_int, raw_weights.split()))
    except ValueError:
        raise InputError(f"{path}:{lineno}: weights must be integers") from None
    if len(weights) != ctx.n:
        raise InputError(f"{path}:{lineno}: expected {ctx.n} weights, got {len(weights)}")

    def parse_all(key: str) -> tuple[LaurentPoly, ...] | None:
        if key not in entries:
            return None
        polys = []
        for source_line, expr in entries[key]:
            try:
                polys.append(parse(expr, ctx))
            except ParseError as exc:
                raise InputError(f"{path}:{source_line}: {exc}") from None
        return tuple(polys)

    images = parse_all("images")
    phi = parse_all("phi")
    psi = parse_all("psi")
    for key, value in (("images", images), ("phi", phi), ("psi", psi)):
        if value is not None and len(value) != ctx.n:
            raise InputError(f"{path}: expected {ctx.n} '{key}:' lines, got {len(value)}")

    return Problem(
        ctx=ctx,
        weights=weights,
        images=images,
        phi=phi,
        psi=psi,
        queries=parse_all("query") or (),
    )


def _query_expr(problem: Problem, expr: str | None, what: str) -> LaurentPoly:
    if expr is not None:
        return parse(expr, problem.ctx)
    if problem.queries:
        return problem.queries[0]
    raise InputError(f"{what}: give --expr or a 'query:' line")


def cmd_decompose(problem: Problem, expr: str | None) -> Report:
    p = _query_expr(problem, expr, "decompose")
    report = Report(command=f"decompose {p}")
    decomposition = problem.diagonal.weight_decompose(p)
    if not decomposition.components:
        report.lines.append("(zero polynomial)")
    else:
        report.lines.extend(
            f"{int_to_decimal(w)}: {c}" for w, c in decomposition.components.items()
        )
    return report


def cmd_slice(problem: Problem) -> Report:
    data = build_slice(problem.diagonal)
    report = Report(command="slice")
    g = int_to_decimal(data.g)
    report.lines.append(f"g: {g}")
    report.lines.append("m: " + " ".join(map(int_to_decimal, data.m)))
    report.lines.append(f"s: {data.s}")
    report.lines.append(f"f: {data.f}")
    report.lines.append("D(s) = s" if data.g == 1 else f"D(s) = {g}*s")
    if data.warning:
        report.warnings.append(data.warning)
    return report


def _parse_uvars(uvars: str | None) -> list[str] | None:
    if uvars is None:
        return None
    return [name for name in re.split(r"[,\s]+", uvars.strip()) if name]


def cmd_kernel_localized(problem: Problem, uvars: str | None) -> Report:
    d = problem.diagonal
    data = build_slice(d)
    if data.g != 1:
        raise InputError(
            f"no slice exists: gcd of weights is {int_to_decimal(data.g)},"
            " localized kernel needs D(s) = s"
        )
    generators = kernel_generators_localized(d, data.s, _parse_uvars(uvars))
    report = Report(command="kernel --localized")
    report.lines.append(f"s: {data.s}")
    for name, u in zip(generators.uctx.names, generators.u):
        report.lines.append(f"{name} = {u}")
    return report


def cmd_kernel_in_b(problem: Problem) -> Report:
    lines = [str(g) for g in kernel_in_B(problem.diagonal)] or ["(constants only)"]
    return Report(command="kernel --in-B", lines=lines)


def cmd_kernel_brute(problem: Problem, degree: int) -> Report:
    exponents = brute_force_kernel(problem.diagonal, degree)
    lines = [str(LaurentPoly.monomial(problem.ctx, exps)) for exps in exponents]
    return Report(command=f"kernel --brute {degree}", lines=lines)


def _leibniz_samples(problem: Problem) -> list[LaurentPoly]:
    if len(problem.queries) >= 2:
        return list(problem.queries)
    variables = [LaurentPoly.variable(problem.ctx, i) for i in range(problem.ctx.n)]
    return variables + [LaurentPoly.sum(problem.ctx, variables)]


def cmd_check_leibniz(problem: Problem) -> Report:
    report = Report(command="check leibniz")
    samples = _leibniz_samples(problem)
    derivations: list[tuple[str, DiagonalDerivation | GeneralDerivation]] = [
        ("diagonal", problem.diagonal)
    ]
    if problem.general is not None:
        derivations.append(("general", problem.general))
    for label, d in derivations:
        pairs = list(combinations_with_replacement(samples, 2))
        for p, q in pairs:
            if d.apply(p * q) != d.apply(p) * q + p * d.apply(q):
                raise RuntimeError(f"Leibniz rule failed for the {label} derivation")
        report.lines.append(f"leibniz {label}: PASS ({len(pairs)} pairs)")
    return report


def cmd_check_conjugate(problem: Problem) -> Report:
    if problem.phi is None or problem.psi is None:
        raise InputError("check conjugate: problem file needs 'phi:' and 'psi:' lines")
    d = problem.diagonal
    transported = conjugate(d, problem.phi, problem.psi)
    report = Report(command="check conjugate")
    for name, image in zip(problem.ctx.names, transported.images):
        report.lines.append(f"D'({name}) = {image}")
    for w, image in zip(d.weights, problem.phi):
        if transported.apply(image) != image * w:
            raise RuntimeError("eigenvector check failed")
    report.lines.append("eigenvector check PASS")
    return report


def cmd_check_aD(problem: Problem, expr: str | None) -> Report:
    a = _query_expr(problem, expr, "check aD")
    report = Report(command="check aD")
    if scalar_multiple_semisimple(a, problem.diagonal):
        report.lines.append("aD semisimple: YES (a constant)")
    else:
        report.lines.append("aD semisimple: NO (a not constant)")
    return report


def cmd_check_locfin(problem: Problem, bound: int | None) -> Report:
    if bound is None:
        raise InputError("check locfin: a positive iteration bound is required")
    if problem.general is None:
        raise InputError("check locfin: problem file needs 'images:' lines")
    verdict = local_finiteness_probe(problem.general, bound)
    report = Report(command=f"check locfin {bound}")
    if isinstance(verdict, LocallyFinite):
        dims = " ".join(str(d) for d in verdict.span_dims)
        report.lines.append(f"locally finite: span dims {dims}")
        for name, span in zip(problem.ctx.names, verdict.spans):
            rendered = ", ".join(str(p) for p in span)
            report.lines.append(f"span({name}): {rendered}")
    elif isinstance(verdict, NotLocallyFinite):
        chain = " -> ".join(str(p) for p in verdict.chain)
        report.lines.append(f"NOT locally finite: witness {chain}")
    elif isinstance(verdict, Inconclusive):
        report.lines.append(f"inconclusive at bound {verdict.bound}")
    else:
        raise RuntimeError(f"unknown finiteness verdict {verdict!r}")
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssderiv",
        description="weight decompositions, slices and kernels of diagonal derivations",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_dec = sub.add_parser("decompose", help="print the weight decomposition of an expression")
    p_dec.add_argument("--file", required=True)
    p_dec.add_argument("--expr")

    p_slice = sub.add_parser("slice", help="build the Bezout slice monomial")
    p_slice.add_argument("--file", required=True)

    p_ker = sub.add_parser("kernel", help="kernel generators in various settings")
    p_ker.add_argument("--file", required=True)
    p_ker.add_argument("--uvars", help="names for the kernel variables u1..un")
    group = p_ker.add_mutually_exclusive_group()
    group.add_argument("--localized", action="store_true")
    group.add_argument("--in-B", dest="in_b", action="store_true")
    group.add_argument("--brute", type=int, metavar="D")

    p_chk = sub.add_parser("check", help="verify a law and print PASS/FAIL")
    p_chk.add_argument("law", choices=["leibniz", "conjugate", "aD", "locfin"])
    p_chk.add_argument("bound", nargs="?", type=int)
    p_chk.add_argument("--file", required=True)
    p_chk.add_argument("--expr")

    return parser


def _dispatch(args: argparse.Namespace) -> Report:
    if args.cmd == "kernel" and args.uvars is not None and not args.localized:
        raise InputError("--uvars applies only to --localized")
    problem = load_problem(args.file)
    if args.cmd == "decompose":
        return cmd_decompose(problem, args.expr)
    if args.cmd == "slice":
        return cmd_slice(problem)
    if args.cmd == "kernel":
        if args.brute is not None:
            return cmd_kernel_brute(problem, args.brute)
        if args.localized:
            return cmd_kernel_localized(problem, args.uvars)
        return cmd_kernel_in_b(problem)
    if args.cmd == "check":
        if args.law == "locfin":
            return cmd_check_locfin(problem, args.bound)
        if args.bound is not None:
            raise InputError(f"check {args.law} takes no bound argument")
        if args.law == "leibniz":
            return cmd_check_leibniz(problem)
        if args.law == "conjugate":
            return cmd_check_conjugate(problem)
        return cmd_check_aD(problem, args.expr)
    raise AssertionError(f"unknown command {args.cmd!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse before 3.13 reads "--opt=--" as []
            parser.error(f"argument --{name}: expected one argument")
    try:
        report = _dispatch(args)
    except (InputError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # anything else is a broken internal invariant
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(report.render())
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
