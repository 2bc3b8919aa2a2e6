#!/usr/bin/env python3
"""Self-check of the benchmark's failure accounting.

    python3 perfbench/selfcheck.py

Runs a few jobs of each workload through run.attempt with deliberately
corrupted outputs (a wrong polynomial, a dropped Hilbert basis element, a
malformed cli file answered with exit 1 instead of 2, an edited report
line, an unexpected exception) and checks that exactly the corrupted jobs
are counted as failed, and that the same jobs pass untouched.  Exits 0 when
every case behaves.
"""

from __future__ import annotations

import os
import sys

import run as bench

bench.require_source()

import workloads  # noqa: E402

SEED = 7


def corrupted(wl, corrupt, victims):
    def run(job):
        out = wl.run(job)
        return corrupt(job, out) if job["index"] in victims else out

    def generate(seed, i):
        return {**wl.generate(seed, i), "index": i}

    return wl._replace(run=run, generate=generate)


def count_failed(wl, jobs) -> int:
    record = bench.Run()
    for i in range(jobs):
        bench.attempt(wl, SEED, i, record)
    return record.failed


def wrong_polynomial(job, out):
    return {**out, "reparsed": out["reparsed"] + out["reparsed"]}


def dropped_generator(job, out):
    return {**out, "basis": out["basis"][:-1]}


def exit_one_for_malformed(job, out):
    return {**out, "code": 1} if job["expected"] == 2 else out


def edited_report(job, out):
    lines = out["stdout"].splitlines(keepends=True)
    return {**out, "stdout": "".join(lines[:-1]) + "2*" + lines[-1]} if job["expected"] == 0 else out


def raises(job, out):
    raise RuntimeError("deliberate")


def main() -> int:
    workdir = os.path.join(bench.OUT, "selfcheck-files")
    algebra, monoid, cli = (workloads.make(name, workdir) for name in workloads.WORKLOADS)
    malformed = [i for i in range(40) if cli.generate(SEED, i)["expected"] == 2]
    cases = [
        ("algebra untouched", algebra, None, set(), 4, 0),
        ("algebra wrong polynomial", algebra, wrong_polynomial, {1, 3}, 4, 2),
        ("algebra unexpected exception", algebra, raises, {2}, 4, 1),
        ("monoid untouched", monoid, None, set(), 9, 0),
        ("monoid dropped generator", monoid, dropped_generator, {0, 5, 8}, 9, 3),
        ("cli untouched", cli, None, set(), 40, 0),
        ("cli malformed file exits 1", cli, exit_one_for_malformed, set(malformed), 40, len(malformed)),
        ("cli edited report", cli, edited_report, {0, 1, 4, 5, 7}, 40, 5),
    ]
    ok = True
    for label, wl, corrupt, victims, jobs, expected in cases:
        if corrupt is not None:
            wl = corrupted(wl, corrupt, victims)
        failed = count_failed(wl, jobs)
        good = failed == expected
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {label}: {failed} of {jobs} failed, expected {expected}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
