"""The three workloads: job generation, the timed job body and its check.

Each workload has `generate(seed, i)` (plain data, no ssderiv), `run(job)`
(the timed calls, made through module attributes so the traced run can wrap
them), `check(job, out)` (a list of problems, empty when correct; run outside
the timed region) and `canonical(job, out)` (text that goes into the
output digest).  Jobs cycle through a fixed odd number of strata, so every run sees
the same mix of sizes whatever its seed, and the traced run, which traces
every other job, traces each stratum equally often.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
from fractions import Fraction
from typing import Callable, NamedTuple

import ssderiv

import gen

WARMUP_SEED = -1  # seed of the warm-up job, fixed so set-up cost does not depend on --seed

# ----------------------------------------------------------------------
# algebra: Laurent arithmetic and diagonal derivations, no kernel calls

# (variables, terms in each factor, power of the small base, automorphism steps)
ALGEBRA_STRATA = (
    (3, 12, 5, 1),
    (3, 15, 6, 2),
    (4, 11, 5, 1),
    (4, 13, 6, 2),
    (3, 17, 5, 2),
)
NAMES = ("x", "y", "z", "w")


def algebra_generate(seed: int, i: int) -> dict:
    n, size, power, steps = ALGEBRA_STRATA[i % len(ALGEBRA_STRATA)]
    rng = gen.job_rng("algebra", seed, i)
    names = list(NAMES[:n])
    # polynomial in the variables the automorphism changes, Laurent in the rest
    ranges = [(0, 3), (0, 3)] + [(-2, 2)] * (n - 2)
    p_terms = gen.exponent_dict(rng, n, size, ranges)
    q_terms = gen.exponent_dict(rng, n, size, ranges)
    base_terms = gen.exponent_dict(rng, n, 3, [(0, 1)] * n, integer=True)
    weights = tuple(rng.choice((-3, -2, -1, 0, 1, 2, 3)) for _ in range(n))
    if not any(weights):
        weights = (1,) + weights[1:]
    phi, psi = gen.triangular(rng, names, steps)
    return {
        "names": names,
        "weights": weights,
        "p": gen.render(p_terms, names, rng),
        "q": gen.render(q_terms, names, rng),
        "p_terms": p_terms,
        "q_terms": q_terms,
        "base": gen.render(base_terms, names, rng),
        "power": power,
        "phi": phi,
        "psi": psi,
    }


def algebra_run(job: dict) -> dict:
    ctx = ssderiv.RingCtx(tuple(job["names"]))
    d = ssderiv.DiagonalDerivation(ctx, job["weights"])
    p = ssderiv.parse(job["p"], ctx)
    q = ssderiv.parse(job["q"], ctx)
    t = p * q + ssderiv.parse(job["base"], ctx) ** job["power"]
    text = str(t)
    reparsed = ssderiv.parse(text, ctx)
    decomposition = d.weight_decompose(t)
    weight_zero = decomposition.components.get(0)
    moving = t - weight_zero if weight_zero is not None else t
    in_image, preimage = d.image_decompose(moving)
    applied = d.apply(t)
    phi = [ssderiv.parse(s, ctx) for s in job["phi"]]
    psi = [ssderiv.parse(s, ctx) for s in job["psi"]]
    transported = p.substitute(phi)
    conj = ssderiv.conjugate(d, phi, psi)
    return {
        "ctx": ctx, "d": d, "p": p, "q": q, "t": t, "reparsed": reparsed,
        "decomposition": decomposition, "moving": moving, "in_image": in_image,
        "preimage": preimage, "applied": applied, "phi": phi, "psi": psi,
        "transported": transported, "conj": conj,
        "rendered": [
            text,
            *(f"{w}: {c}" for w, c in decomposition.components.items()),
            str(preimage),
            str(applied),
            str(transported),
            *(str(image) for image in conj.images),
        ],
    }


def _product_terms(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _value(terms: dict, point) -> Fraction:
    """Exact value of a Laurent polynomial, given by its terms, at a point."""
    total = Fraction(0)
    for exps, coeff in terms.items():
        for v, e in zip(point, exps):
            coeff *= v ** e
        total += coeff
    return total


def algebra_check(job: dict, out: dict) -> list[str]:
    problems = []
    ctx, d, t = out["ctx"], out["d"], out["t"]
    if out["reparsed"] != t:
        problems.append("parse(str(t)) != t")
    if (out["p"] * out["q"]).terms != _product_terms(job["p_terms"], job["q_terms"]):
        problems.append("product differs from the dict convolution of the inputs")
    decomposition = out["decomposition"]
    if decomposition.recombine(ctx) != t:
        problems.append("weight components do not recombine to the input")
    for w, component in decomposition.components.items():
        if any(gen.dot(e, job["weights"]) != w for e in component.terms):
            problems.append(f"component {w} holds a term of another weight")
    if not out["in_image"] or d.apply(out["preimage"]) != out["moving"]:
        problems.append("D(preimage) != input minus its weight-0 part")
    if out["applied"].terms != {
        e: c * gen.dot(e, job["weights"]) for e, c in t.terms.items() if gen.dot(e, job["weights"])
    }:
        problems.append("D(t) is not the termwise weight multiple")
    point = (Fraction(2, 3), Fraction(-5, 7), Fraction(3, 11), Fraction(13, 5))[:ctx.n]
    images_at_point = [_value(image.terms, point) for image in out["phi"]]
    if _value(out["transported"].terms, point) != _value(out["p"].terms, images_at_point):
        problems.append("p(phi) and p disagree at a rational point")
    for w, image in zip(job["weights"], out["phi"]):
        if out["conj"].apply(image) != image * w:
            problems.append("transported eigenbasis check of conjugate failed")
    return problems


# ----------------------------------------------------------------------
# monoid: Hilbert bases and the brute-force oracle, little Laurent work

# (variables, oracle degree = max positive weight + max |negative weight|,
#  cap on |weight|); C(n + D, n) oracle rows stays under 140k.
MONOID_SHAPES = (
    (5, 16, 12), (6, 12, 9), (7, 9, 7),
    (5, 20, 12), (6, 15, 9), (7, 12, 7),
    (5, 24, 12), (6, 18, 9), (7, 14, 7),
)


def monoid_generate(seed: int, i: int) -> dict:
    n, degree, cap = MONOID_SHAPES[i % len(MONOID_SHAPES)]
    rng = gen.job_rng("monoid", seed, i)
    top_pos = rng.randint(degree - cap, cap)
    # repeated weights make Hilbert completion up to 50 times slower than the
    # median, and a few such vectors would decide a run's throughput
    weights = gen.coprime_weights(rng, n, top_pos, degree - top_pos, distinct=True)
    names = [f"x{j + 1}" for j in range(n)]
    poly = gen.exponent_dict(rng, n, rng.randint(3, 5), [(-2, 2)] * n)
    return {"names": names, "weights": weights, "degree": degree, "poly": poly,
            "oracle_shape": (n, degree)}


def monoid_run(job: dict) -> dict:
    ctx = ssderiv.RingCtx(tuple(job["names"]))
    d = ssderiv.DiagonalDerivation(ctx, job["weights"])
    basis = ssderiv.hilbert_basis(job["weights"]).gens
    in_b = ssderiv.kernel_in_B(d)
    solutions = ssderiv.brute_force_kernel(d, job["degree"])
    data = ssderiv.build_slice(d)
    generators = ssderiv.kernel_generators_localized(d, data.s)
    p = ssderiv.LaurentPoly(ctx, job["poly"])
    coords = ssderiv.slice_coordinates(d, data.s, p)
    back = ssderiv.reconstruct_from_slice_coordinates(d, data.s, coords)
    return {
        "p": p, "basis": basis, "in_b": in_b, "solutions": solutions, "s": data.s,
        "u": generators.u, "back": back,
        "rendered": [
            " ".join(",".join(map(str, a)) for a in basis),
            " ".join(str(m) for m in in_b),
            str(len(solutions)),
            str(data.s),
            *(str(u) for u in generators.u),
            *(f"{w}: {c}" for w, c in coords.components.items()),
        ],
    }


def monoid_check(job: dict, out: dict) -> list[str]:
    problems = []
    ws, degree = job["weights"], job["degree"]
    if any(gen.dot(a, ws) or sum(a) > degree or min(a) < 0 for a in out["solutions"]):
        problems.append("oracle returned a vector off the weight-zero monoid")
    if gen.minimal_nonzero(out["solutions"]) != set(out["basis"]):
        problems.append("oracle's minimal nonzero solutions differ from hilbert_basis")
    if [m.monomial_exponents() for m in out["in_b"]] != list(out["basis"]):
        problems.append("kernel_in_B differs from hilbert_basis")
    if gen.dot(out["s"].monomial_exponents(), ws) != 1:
        problems.append("slice monomial does not have weight 1")
    if any(gen.dot(u.monomial_exponents(), ws) for u in out["u"]):
        problems.append("a localized kernel generator has nonzero weight")
    if out["back"] != out["p"]:
        problems.append("slice coordinates do not round-trip")
    return problems


# ----------------------------------------------------------------------
# cli: many small problem files through ssderiv.cli.main, in process

CLI_FORMS = (
    "decompose", "slice", "kernel_localized", "kernel_in_B", "kernel_brute",
    "check_leibniz", "check_conjugate", "check_aD", "check_locfin",
)
VARSETS = (("x", "y"), ("x", "y", "z"), ("a", "b"), ("p", "q", "r"))
# one job in ten gets a malformed file: positions 9 and 14 of every 20, so
# the traced run, which traces the odd-numbered jobs, sees its share too
MALFORMED_AT, MALFORMED_PERIOD = (9, 14), 20


def _kernel_monomial(rng, weights):
    """A random nonzero weight-zero exponent vector with entries <= 4, if any."""
    n = len(weights)
    for _ in range(200):
        exps = tuple(rng.randint(0, 4) for _ in range(n))
        if any(exps) and gen.dot(exps, weights) == 0:
            return exps
    return None


def _images(rng, names, weights, kind):
    n = len(names)
    if kind == "diagonal":
        return [f"{w}*{x}" if w else "0" for x, w in zip(names, weights)]
    if kind == "nilpotent":
        return [f"{rng.randint(1, 3)}*{names[j + 1]}^{rng.randint(1, 2)}" for j in range(n - 1)] + ["0"]
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    return [f"{a}*{names[0]}^2*{names[1]}", f"-{b}*{names[0]}*{names[1]}^2"] + ["0"] * (n - 2)


def cli_generate(seed: int, i: int, workdir: str) -> dict:
    form = CLI_FORMS[i % len(CLI_FORMS)]
    malformed = i % MALFORMED_PERIOD in MALFORMED_AT
    rng = gen.job_rng("cli", seed, i)
    names = list(rng.choice(VARSETS))
    n = len(names)
    top = rng.randint(1, 4)
    bottom = rng.choice([v for v in range(1, 5) if n > 2 or math.gcd(v, top) == 1])
    weights = gen.coprime_weights(rng, n, top, bottom)
    poly = gen.exponent_dict(rng, n, rng.randint(2, 5), [(-2, 3)] * n)
    lines = {"vars": [" ".join(names)], "weights": [" ".join(map(str, weights))]}
    argv = [form.split("_")[0]]
    shape = expect = None
    if form == "decompose":
        if rng.random() < 0.5:
            lines["query"] = [gen.render(poly, names, rng)]
        else:
            argv.append("--expr=" + gen.render(poly, names, rng))
    elif form == "slice":
        if rng.random() < 0.3:
            weights = tuple(2 * w for w in weights)
            lines["weights"] = [" ".join(map(str, weights))]
    elif form == "kernel_localized":
        argv += ["--localized"]
        if rng.random() < 0.3:
            argv += ["--uvars", " ".join(f"k{j}" for j in range(n))]
    elif form == "kernel_in_B":
        argv += ["--in-B"]
    elif form == "kernel_brute":
        degree = rng.randint(3, 8)
        argv += ["--brute", str(degree)]
        shape = (n, degree)
        solutions = sorted((a for a in itertools.product(range(degree + 1), repeat=n)
                            if sum(a) <= degree and gen.dot(a, weights) == 0), key=lambda a: (sum(a), a))
        expect = [gen.render({a: Fraction(1)}, names) for a in solutions]
    elif form == "check_leibniz":
        argv += ["leibniz"]
        if rng.random() < 0.5:
            lines["images"] = _images(rng, names, weights, rng.choice(("diagonal", "nilpotent", "shift")))
        if rng.random() < 0.5:
            lines["query"] = [gen.render(gen.exponent_dict(rng, n, 2, [(0, 2)] * n), names, rng)
                              for _ in range(2)]
        samples = len(lines["query"]) if "query" in lines else n + 1
        pairs = samples * (samples + 1) // 2
        expect = [f"leibniz {kind}: PASS ({pairs} pairs)"
                  for kind in ("diagonal", "general") if kind == "diagonal" or "images" in lines]
    elif form == "check_conjugate":
        argv += ["conjugate"]
        phi, psi = gen.triangular(rng, names, 2 if n >= 3 and rng.random() < 0.5 else 1)
        lines["phi"], lines["psi"] = phi, psi
    elif form == "check_aD":
        argv += ["aD"]
        exps = _kernel_monomial(rng, weights) if rng.random() < 0.6 else None
        a = gen.render({exps: gen.coefficient(rng)}, names) if exps else str(rng.randint(1, 9))
        argv.append(f"--expr={a}")
        expect = ["aD semisimple: " + ("NO (a not constant)" if exps else "YES (a constant)")]
    elif form == "check_locfin":
        argv += ["locfin", str(rng.randint(3, 6))]
        lines["images"] = _images(rng, names, weights, rng.choice(("diagonal", "nilpotent", "shift")))

    if malformed:
        shape = None
        _corrupt(rng, form, lines, argv, names)
    path = os.path.join(workdir, f"job{i % 16}.txt")
    text = "".join(f"{key}: {value}\n" for key, values in lines.items() for value in values)
    if rng.random() < 0.3:
        text = "# generated problem\n\n" + text
    return {"argv": argv + ["--file", path], "path": path, "text": text, "form": form,
            "names": names, "weights": weights, "expected": 2 if malformed else 0,
            "oracle_shape": shape, "expect": expect}


def _corrupt(rng, form, lines, argv, names):
    """Make the problem invalid input; the CLI must answer with exit code 2."""
    kinds = ["no_weights", "extra_weight", "bad_weight", "unknown_key", "repeated_var",
             "bad_syntax", "unknown_var", "negative_power"]
    if form in ("kernel_localized", "check_conjugate", "check_locfin", "check_aD"):
        kinds += [form] * 3
    kind = rng.choice(kinds)
    if kind == "no_weights":
        del lines["weights"]
    elif kind == "extra_weight":
        lines["weights"] = [lines["weights"][0] + " 1"]
    elif kind == "bad_weight":
        lines["weights"] = ["1 x"]
    elif kind == "unknown_key":
        lines["degree"] = ["3"]
    elif kind == "repeated_var":
        lines["vars"] = ["x x"]
    # load_problem parses every query line, whatever the command
    elif kind == "bad_syntax":
        lines["query"] = [f"{names[0]}^"]
    elif kind == "unknown_var":
        lines["query"] = ["zz + 1"]
    elif kind == "negative_power":
        lines["query"] = [f"({names[0]} + 1)^-1"]
    elif kind == "kernel_localized":  # gcd 2: no slice exists
        lines["weights"] = [" ".join(["2"] * (len(names) - 1) + ["-4"])]
    elif kind == "check_conjugate":
        del lines["phi"], lines["psi"]
    elif kind == "check_locfin":
        del lines["images"]
    else:  # check_aD with a = x, which is not in the kernel
        argv[-1] = f"--expr={names[0]}"


def cli_run(job: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ssderiv.cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _result_exprs(form: str, line: str) -> list[str]:
    """Expressions printed on one report line, per command form."""
    if form == "decompose" or line.startswith(("s: ", "f: ")):
        return [line.split(": ", 1)[1]] if ": " in line and line != "(zero polynomial)" else []
    if form == "kernel_localized":
        return [line.split(" = ", 1)[1]]
    if form in ("kernel_in_B", "kernel_brute"):
        return [] if line == "(constants only)" else [line]
    if form == "check_conjugate" and line.startswith("D'("):
        return [line.split(" = ", 1)[1]]
    if form == "check_locfin":
        if line.startswith("span("):
            return line.split(": ", 1)[1].split(", ")
        if line.startswith("NOT locally finite: witness "):
            return line[len("NOT locally finite: witness "):].split(" -> ")
    return []


def cli_check(job: dict, out: dict) -> list[str]:
    if out["code"] != job["expected"]:
        return [f"exit code {out['code']}, expected {job['expected']}: {out['stderr'].strip()}"]
    if job["expected"] == 2:
        if out["stdout"] or not out["stderr"].startswith("error: "):
            return ["exit 2 without a single 'error:' message"]
        return []
    if out["stderr"] or not out["stdout"].startswith("command: "):
        return ["exit 0 with stderr output or no command line"]
    ctx = ssderiv.RingCtx(tuple(job["names"]))
    problems = []
    lines = out["stdout"].splitlines()[1:]
    for line in lines:
        if line.startswith("warning: "):
            continue
        for expr in _result_exprs(job["form"], line):
            if str(ssderiv.parse(expr, ctx)) != expr:
                problems.append(f"report expression does not re-parse canonically: {expr!r}")
    if job["expect"] is not None and lines != job["expect"]:
        problems.append(f"report lines {lines}, expected {job['expect']}")
    if job["form"] == "slice":
        fields = dict(line.split(": ", 1) for line in lines[:4])
        g, m = int(fields["g"]), tuple(int(e) for e in fields["m"].split())
        if g != gen.gcd_all(job["weights"]) or gen.dot(m, job["weights"]) != g:
            problems.append("slice exponents m do not give weight gcd(weights)")
        if fields["s"] != gen.render({m: Fraction(1)}, job["names"]):
            problems.append("slice monomial s is not x^m")
        eigen = ["D(s) = s"] if g == 1 else [f"D(s) = {g}*s", f"warning: action factors through t -> t^{g}"]
        if lines[4:] != eigen:
            problems.append("slice eigenvalue line or warning is wrong")
    if job["form"] in ("kernel_in_B", "kernel_brute"):
        for line in lines:
            if line != "(constants only)":
                exps = ssderiv.parse(line, ctx).monomial_exponents()
                if gen.dot(exps, job["weights"]) or min(exps) < 0:
                    problems.append(f"kernel monomial {line} is off the weight-zero monoid")
    if job["form"] == "decompose" and lines != ["(zero polynomial)"]:
        total = ssderiv.LaurentPoly.zero(ctx)
        for line in lines:
            w, expr = line.split(": ", 1)
            part = ssderiv.parse(expr, ctx)
            if any(gen.dot(e, job["weights"]) != int(w) for e in part.terms):
                problems.append(f"component {w} holds a term of another weight")
            total = total + part
        query = out["stdout"].splitlines()[0][len("command: decompose "):]
        if total != ssderiv.parse(query, ctx):
            problems.append("decompose components do not sum to the query")
    return problems


def cli_canonical(job: dict, out: dict) -> str:
    return f"{out['code']}\n{out['stdout']}{out['stderr'].replace(job['path'], '<file>')}"


class Workload(NamedTuple):
    name: str
    generate: Callable
    run: Callable
    check: Callable
    canonical: Callable
    digest_jobs: int  # jobs whose outputs go into the digest
    span_name: Callable | None = None  # benchmark-side span around the job's single entry call


def _rendered(job, out):
    return "\n".join(out["rendered"])


def make(name: str, workdir: str) -> Workload:
    if name == "algebra":
        return Workload(name, algebra_generate, algebra_run, algebra_check, _rendered, 10)
    if name == "monoid":
        return Workload(name, monoid_generate, monoid_run, monoid_check, _rendered, 18)
    if name == "cli":
        import ssderiv.cli  # noqa: F401  (the cli module is not loaded by `import ssderiv`)

        os.makedirs(workdir, exist_ok=True)

        def generate(seed, i):
            job = cli_generate(seed, i, workdir)
            with open(job["path"], "w") as fh:
                fh.write(job["text"])
            return job

        return Workload(name, generate, cli_run, cli_check, cli_canonical, 180,
                        lambda job: f"cli.{job['form']}")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("algebra", "monoid", "cli")
