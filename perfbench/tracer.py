"""Spans around the calls the benchmark makes into ssderiv, recorded from
outside the package.

`Tracer.install()` replaces each target function or method with a wrapper
that opens a span: in the defining class for methods, and for functions in
every loaded ssderiv module that holds a reference to it (so calls that
`ssderiv.cli` and `ssderiv.kernel` make through their imported names get
spans of their own).  `uninstall()` restores the originals.  Spans are kept
in memory and written out by `dump()`; self time (a span's duration minus
the part its child spans cover) and counters are summed per name as spans
close.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict


def _terms_of_result(args, result):
    return {"terms_out": len(result.terms)}


def _terms_of_self(args, result):
    return {"terms_out": len(args[0].terms)}


def _gens(args, result):
    return {"gens": len(result.gens)}


def _oracle(args, result):
    d, degree = args[0], args[1]
    return {"rows_scanned": math.comb(len(d.weights) + degree, degree), "solutions": len(result)}


def _verdict(args, result):
    kind = type(result).__name__
    if kind == "LocallyFinite":
        chain = sum(len(span) for span in result.spans)
    elif kind == "NotLocallyFinite":
        chain = len(result.chain)
    else:
        chain = result.bound
    return {"chain_len": chain, kind: 1}


# (span name, "module:attribute path", counters from (args, result))
TARGETS = (
    ("laurent.parse", "laurent:parse", _terms_of_result),
    ("laurent.mul", "laurent:LaurentPoly.__mul__", _terms_of_result),
    ("laurent.add", "laurent:LaurentPoly.__add__", _terms_of_result),
    ("laurent.neg", "laurent:LaurentPoly.__neg__", _terms_of_result),
    ("laurent.pow", "laurent:LaurentPoly.__pow__", _terms_of_result),
    ("laurent.partial", "laurent:LaurentPoly.partial", _terms_of_result),
    ("laurent.substitute", "laurent:LaurentPoly.substitute", _terms_of_result),
    ("laurent.str", "laurent:LaurentPoly.__str__", _terms_of_self),
    ("derivation.apply", "derivation:DiagonalDerivation.apply", None),
    ("derivation.apply", "derivation:GeneralDerivation.apply", None),
    ("derivation.weight_decompose", "derivation:DiagonalDerivation.weight_decompose", None),
    ("derivation.image_decompose", "derivation:DiagonalDerivation.image_decompose", None),
    ("derivation.conjugate", "derivation:conjugate", None),
    ("derivation.local_finiteness_probe", "derivation:local_finiteness_probe", _verdict),
    ("derivation.scalar_multiple_semisimple", "derivation:scalar_multiple_semisimple", None),
    ("numtheory.bezout_multi", "numtheory:bezout_multi", None),
    ("slices.build_slice", "slices:build_slice", None),
    ("slices.verify_slice", "slices:verify_slice", None),
    ("kernel.hilbert_basis", "kernel:hilbert_basis", _gens),
    ("kernel.kernel_in_B", "kernel:kernel_in_B", None),
    ("kernel.brute_force_kernel", "kernel:brute_force_kernel", _oracle),
    ("kernel.kernel_generators_localized", "kernel:kernel_generators_localized", None),
    ("kernel.slice_coordinates", "kernel:slice_coordinates", None),
    ("kernel.reconstruct_from_slice_coordinates", "kernel:reconstruct_from_slice_coordinates", None),
    ("cli.load_problem", "cli:load_problem", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, job, name, start, end)
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.job = None
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name, start, time covered by children]
        self._patches: list[tuple] = []
        self._wrappers = [self._resolve(*target) for target in TARGETS]

    # -- spans ----------------------------------------------------------

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def end(self, counters: dict | None = None) -> float:
        """Close the innermost span; returns its duration."""
        stop = time.perf_counter()
        span_id, name, start, covered = self._stack.pop()
        duration = stop - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None, self.job, name, start, stop))
        stat = self.stats[name]
        stat["calls"] += 1
        stat["self_s"] += duration - covered
        stat["total_s"] += duration
        for key, value in (counters or {}).items():
            stat[key] += value
        return duration

    # -- patching -------------------------------------------------------

    def _resolve(self, name, where, count):
        module_name, attr = where.split(":")
        owner = importlib.import_module(f"ssderiv.{module_name}")
        if "." in attr:
            class_name, attr = attr.split(".")
            owner = getattr(owner, class_name)
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end()
                raise
            tracer.end(count(args, result) if count else None)
            return result

        return owner, attr, original, traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "ssderiv" or key.startswith("ssderiv.")]
        for owner, attr, original, traced in self._wrappers:
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "job", "name", "start", "end"], "spans": self.spans}, fh)
