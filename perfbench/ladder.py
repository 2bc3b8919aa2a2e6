"""Size ladder: fixed cases at the sizes the ROADMAP baseline names, so the
traced run shows how each operation scales, not only how fast it is.

Each case is one untraced call timed as a single span `ladder.<case>`, so
its self time is the whole call.  Inputs are built before the span opens.
"""

from __future__ import annotations

import random

import ssderiv

import gen

CTX = ssderiv.RingCtx(("x", "y", "z", "w"))


def _cases():
    variables = [ssderiv.LaurentPoly.variable(CTX, i) for i in range(CTX.n)]
    one_plus = ssderiv.parse("x + y + z + w + 1", CTX)
    yield "pow12", lambda: one_plus ** 12
    rng = random.Random("ladder")
    a = ssderiv.LaurentPoly(CTX, gen.exponent_dict(rng, 4, 300, [(0, 9)] * 4))
    b = ssderiv.LaurentPoly(CTX, gen.exponent_dict(rng, 4, 300, [(0, 9)] * 4))
    yield "mul300x300", lambda: a * b
    for degree in (6, 8, 10):  # 210, 495 and 1001 terms
        terms = gen.multinomial_terms(4, degree)
        text = gen.render(terms, list(CTX.names))
        yield f"parse{len(terms)}", lambda text=text: ssderiv.parse(text, CTX)
    big = ssderiv.LaurentPoly(CTX, gen.multinomial_terms(4, 10))
    yield "substitute1001", lambda: big.substitute(variables)
    yield "hilbert6", lambda: ssderiv.hilbert_basis((2, 3, 5, -7, -11, -13))


def run_ladder(tracer) -> dict:
    metrics = {}
    tracer.job = "ladder"
    for case, call in _cases():
        tracer.begin(f"ladder.{case}")
        result = call()
        duration = tracer.end()
        size = len(result.gens) if hasattr(result, "gens") else len(result.terms)
        metrics[f"ladder.{case}.self_s"] = (duration, "s")
        metrics[f"ladder.{case}.terms_out"] = (float(size), "terms")
    return metrics
