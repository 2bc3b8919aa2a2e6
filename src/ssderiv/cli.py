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
import sys
from itertools import combinations_with_replacement
from typing import NamedTuple, Sequence

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

# kernel --brute D refuses D when more than this many exponent vectors have
# total degree <= D, which is C(n + D, n) in n variables.  The worst case at
# the bound has every weight zero and lists every vector: one variable at
# D = 999,999 took 6.4 s and 270 MB, two at D = 1412 took 5.0 s and 195 MB
# (2-vCPU Xeon VM, CPython 3.11).
MAX_BRUTE_VECTORS = 10**6

# check locfin refuses an iteration bound over this.  On images (x^2*y, y^2)
# bound 500 took 1.7 s and 119 MB, and bound 1000 took 17 s (same VM).  It
# bounds the number of iterates, not their size.
MAX_PROBE_BOUND = 500

_LIST_KEYS = ("images", "phi", "psi", "query")


class InputError(ValueError):
    """Invalid problem file or command usage; maps to exit code 2."""


class Problem(NamedTuple):
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


def load_problem(path: str) -> Problem:
    if not path:
        raise InputError("--file: the problem file path is empty")
    try:
        with open(path) as fh:
            text = fh.read()
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


def cmd_decompose(problem: Problem, args: argparse.Namespace) -> list[str]:
    p = _query_expr(problem, args.expr, "decompose")
    lines = [f"command: decompose {p}"]
    components = problem.diagonal.weight_decompose(p).components
    lines += [f"{int_to_decimal(w)}: {c}" for w, c in components.items()] or ["(zero polynomial)"]
    return lines


def cmd_slice(problem: Problem, args: argparse.Namespace) -> list[str]:
    data = build_slice(problem.diagonal)
    g = int_to_decimal(data.g)
    lines = ["command: slice", f"g: {g}", "m: " + " ".join(map(int_to_decimal, data.m))]
    lines += [f"s: {data.s}", f"f: {data.f}", "D(s) = s" if data.g == 1 else f"D(s) = {g}*s"]
    if data.warning:
        lines.append(f"warning: {data.warning}")
    return lines


def _brute_vectors(n: int, degree: int) -> int:
    """C(n + degree, n), the number of exponent vectors of total degree <=
    degree in n variables, or the first partial product C(big + k, k) over
    MAX_BRUTE_VECTORS, so that a huge degree costs one step."""
    big, small = max(n, degree), min(n, degree)
    count = 1
    for k in range(1, small + 1):
        count = count * (big + k) // k
        if count > MAX_BRUTE_VECTORS:
            break
    return count


def cmd_kernel(problem: Problem, args: argparse.Namespace) -> list[str]:
    d = problem.diagonal
    if args.brute is not None:
        if _brute_vectors(problem.ctx.n, args.brute) > MAX_BRUTE_VECTORS:
            raise InputError(f"--brute D: over {MAX_BRUTE_VECTORS} exponent vectors of degree <= D")
        exponents = brute_force_kernel(d, args.brute)
        return [
            f"command: kernel --brute {args.brute}",
            *(str(LaurentPoly.monomial(problem.ctx, exps)) for exps in exponents),
        ]
    if args.localized:
        data = build_slice(d)
        if data.g != 1:
            raise InputError(
                f"no slice exists: gcd of weights is {int_to_decimal(data.g)},"
                " localized kernel needs D(s) = s"
            )
        unames = None if args.uvars is None else args.uvars.replace(",", " ").split()
        generators = kernel_generators_localized(d, data.s, unames)
        return [
            "command: kernel --localized",
            f"s: {data.s}",
            *(f"{name} = {u}" for name, u in zip(generators.uctx.names, generators.u)),
        ]
    return ["command: kernel --in-B", *([str(g) for g in kernel_in_B(d)] or ["(constants only)"])]


def _leibniz_samples(problem: Problem) -> list[LaurentPoly]:
    if len(problem.queries) >= 2:
        return list(problem.queries)
    variables = [LaurentPoly.variable(problem.ctx, i) for i in range(problem.ctx.n)]
    return variables + [LaurentPoly.sum(problem.ctx, variables)]


def cmd_check_leibniz(problem: Problem, args: argparse.Namespace) -> list[str]:
    lines = ["command: check leibniz"]
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
        lines.append(f"leibniz {label}: PASS ({len(pairs)} pairs)")
    return lines


def cmd_check_conjugate(problem: Problem, args: argparse.Namespace) -> list[str]:
    if problem.phi is None or problem.psi is None:
        raise InputError("check conjugate: problem file needs 'phi:' and 'psi:' lines")
    d = problem.diagonal
    transported = conjugate(d, problem.phi, problem.psi)
    lines = ["command: check conjugate"]
    lines += [f"D'({name}) = {image}" for name, image in zip(problem.ctx.names, transported.images)]
    for w, image in zip(d.weights, problem.phi):
        if transported.apply(image) != image * w:
            raise RuntimeError("eigenvector check failed")
    lines.append("eigenvector check PASS")
    return lines


def cmd_check_aD(problem: Problem, args: argparse.Namespace) -> list[str]:
    a = _query_expr(problem, args.expr, "check aD")
    if scalar_multiple_semisimple(a, problem.diagonal):
        return ["command: check aD", "aD semisimple: YES (a constant)"]
    return ["command: check aD", "aD semisimple: NO (a not constant)"]


def cmd_check_locfin(problem: Problem, args: argparse.Namespace) -> list[str]:
    bound = args.bound
    if bound is None:
        raise InputError("check locfin: a positive iteration bound is required")
    if problem.general is None:
        raise InputError("check locfin: problem file needs 'images:' lines")
    if bound > MAX_PROBE_BOUND:
        raise InputError(f"check locfin: the iteration bound is over {MAX_PROBE_BOUND}")
    verdict = local_finiteness_probe(problem.general, bound)
    lines = [f"command: check locfin {bound}"]
    if isinstance(verdict, LocallyFinite):
        dims = " ".join(str(d) for d in verdict.span_dims)
        lines.append(f"locally finite: span dims {dims}")
        for name, span in zip(problem.ctx.names, verdict.spans):
            rendered = ", ".join(str(p) for p in span)
            lines.append(f"span({name}): {rendered}")
    elif isinstance(verdict, NotLocallyFinite):
        chain = " -> ".join(str(p) for p in verdict.chain)
        lines.append(f"NOT locally finite: witness {chain}")
    elif isinstance(verdict, Inconclusive):
        lines.append(f"inconclusive at bound {verdict.bound}")
    else:
        raise RuntimeError(f"unknown finiteness verdict {verdict!r}")
    return lines


_LAWS = {
    "leibniz": cmd_check_leibniz,
    "conjugate": cmd_check_conjugate,
    "aD": cmd_check_aD,
    "locfin": cmd_check_locfin,
}


def cmd_check(problem: Problem, args: argparse.Namespace) -> list[str]:
    if args.law != "locfin" and args.bound is not None:
        raise InputError(f"check {args.law} takes no bound argument")
    return _LAWS[args.law](problem, args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssderiv",
        description="weight decompositions, slices and kernels of diagonal derivations",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_dec = sub.add_parser("decompose", help="print the weight decomposition of an expression")
    p_dec.set_defaults(run=cmd_decompose)
    p_dec.add_argument("--file", required=True)
    p_dec.add_argument("--expr")

    p_slice = sub.add_parser("slice", help="build the Bezout slice monomial")
    p_slice.set_defaults(run=cmd_slice)
    p_slice.add_argument("--file", required=True)

    p_ker = sub.add_parser("kernel", help="kernel generators in various settings")
    p_ker.set_defaults(run=cmd_kernel)
    p_ker.add_argument("--file", required=True)
    p_ker.add_argument("--uvars", help="names for the kernel variables u1..un")
    group = p_ker.add_mutually_exclusive_group()
    group.add_argument("--localized", action="store_true")
    group.add_argument("--in-B", dest="in_b", action="store_true")
    group.add_argument("--brute", metavar="D")

    p_chk = sub.add_parser("check", help="verify a law and print PASS/FAIL")
    p_chk.set_defaults(run=cmd_check)
    p_chk.add_argument("law", choices=_LAWS)
    p_chk.add_argument("bound", nargs="?")
    p_chk.add_argument("--file", required=True)
    p_chk.add_argument("--expr")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse before 3.13 reads "--opt=--" as []
            parser.error(f"argument --{name}: expected one argument")
    try:
        if args.cmd == "kernel" and args.uvars is not None and not args.localized:
            raise InputError("--uvars applies only to --localized")
        # the integers a command takes, read as text, like the weights of a file
        for name, what in (("brute", "--brute"), ("bound", "the bound")):
            text = vars(args).get(name)
            if text is not None:
                try:
                    setattr(args, name, decimal_to_int(text))
                except ValueError:
                    raise InputError(f"{what}: expected an integer, got {text!r}") from None
        lines = args.run(load_problem(args.file), args)
    except ValueError as exc:  # InputError and ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # anything else is a broken internal invariant
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
