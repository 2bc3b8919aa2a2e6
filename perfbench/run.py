#!/usr/bin/env python3
"""Layered benchmark for ssderiv.

    python3 perfbench/run.py --workload {algebra,monoid,cli} --seed N --seconds S --trace {0,1}

Runs one workload in a closed loop with one client (one process, one
thread: the next job starts when the previous one is done) until the jobs'
own wall time, scaled to a fixed machine speed (perfbench/speed.py), adds up
to S seconds, checks every job's output outside the timed region, and prints
one line per metric followed by a JSON summary as the last line.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 every other job runs with spans around each wrapped call and the
run reports per-layer self times, counters, tracing overhead and a size
ladder of fixed cases.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MAX_STRETCH = 1.75  # cap on unscaled timed time, in units of --seconds
SETUP_PROBES = 7  # spread over the run, so one slow stretch of the machine cannot set the median
LAYERS = ("laurent", "derivation", "slices", "kernel", "cli", "bench")


def require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "ssderiv", "__init__.py")):
        sys.exit(f"error: no ssderiv sources under {SRC}; run from the root of a checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


class Run:
    """Counts and timings of one measured loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.timed = 0.0
        self.traced: list[bool] = []
        self.failures: list[str] = []
        self.failed = 0
        self.canonical: list[str] = []
        self.shapes: list = []
        self.exits: dict[int, int] = {}


def attempt(wl, seed: int, i: int, run: Run, tracer=None) -> None:
    """Generate, time, check and record job i."""
    job = wl.generate(seed, i)
    if tracer is not None:
        tracer.install()
        tracer.job = i
        tracer.begin("bench.job")
        if wl.span_name:
            tracer.begin(wl.span_name(job))
    start = time.perf_counter()
    try:
        out, error = wl.run(job), None
    except Exception as exc:  # an unexpected raise fails the job, the run goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        if wl.span_name:
            tracer.end()
        tracer.end()
        tracer.uninstall()
    if error:
        problems = [error]
    else:
        try:
            problems = wl.check(job, out)
        except Exception as exc:  # output too malformed to check counts as a failure
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    run.latencies.append(elapsed)
    run.starts.append(start)
    run.timed += elapsed
    run.traced.append(tracer is not None)
    run.shapes.append(job.get("oracle_shape"))
    if problems:
        run.failed += 1
        run.failures.extend(f"job {i}: {p}" for p in problems)
    if out is not None and tracer is not None and "code" in out:
        run.exits[out["code"]] = run.exits.get(out["code"], 0) + 1
    if i < wl.digest_jobs:
        run.canonical.append(wl.canonical(job, out) if out is not None else f"error {error}")


def measure(wl, seed: int, seconds: float, speed, tracer=None, pause=None, pauses: int = 0) -> Run:
    """Closed loop until the timed job time, at the reference machine speed,
    reaches `seconds` (so the job count does not depend on how fast the host
    is running), or the unscaled time reaches MAX_STRETCH times it.  In a
    traced run the odd-numbered jobs carry spans.  Speed samples are taken
    untimed between jobs, and `pause()` runs untimed between jobs at `pauses`
    evenly spaced points of the timed time."""
    run = Run()
    i = done = 0
    at_reference = 0.0
    speed.sample(3)
    while at_reference < seconds and run.timed < MAX_STRETCH * seconds:
        attempt(wl, seed, i, run, tracer if i % 2 else None)
        speed.sample_if_due()
        at_reference += run.latencies[-1] * speed.current_scale()
        i += 1
        if done < pauses and at_reference >= seconds * (done + 1) / (pauses + 1):
            pause()
            done += 1
    speed.sample(3)
    return run


def scaled(run: Run, speed) -> list[float]:
    """Each job's wall time at the reference machine speed."""
    return [t * speed.scale(start, start + t) for start, t in zip(run.starts, run.latencies)]


def digest(wl, seed: int, run: Run) -> str:
    """sha256 of the canonical outputs of the first wl.digest_jobs jobs, which
    are run untimed when the loop stopped short of them."""
    texts = list(run.canonical)
    extra = Run()
    for i in range(len(texts), wl.digest_jobs):
        attempt(wl, seed, i, extra)
    texts += extra.canonical
    return hashlib.sha256("\x00".join(texts).encode()).hexdigest()


def setup_probe(workload: str) -> dict:
    """Time a fresh interpreter from spawn to the end of import and warm-up.

    The child runs with -X importtime, whose report gives numpy's share of
    the import (zero once nothing imports numpy)."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-X", "importtime", os.path.join(HERE, "setup_probe.py"), workload,
         os.path.join(OUT, f"{workload}-probe-files")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        text=True,
    )
    line = child.stdout.readline()
    ready = time.perf_counter()
    _, importtime = child.communicate()
    if child.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} failed: {importtime[-2000:]}")
    probe = json.loads(line)
    probe["setup_s"] = ready - start - probe["gen_s"]
    probe["numpy_s"] = 0.0
    for row in importtime.splitlines():  # "import time: self [us] | cumulative | package"
        fields = row.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            probe["numpy_s"] = int(fields[1]) / 1e6
    return probe


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten jobs
    and at least 5% of the jobs beyond it (p95 from 200 jobs on); with fewer
    than eleven jobs, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    beyond = max(10, n // 20)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def end_to_end(run: Run, latencies: list[float], setup: list[dict], peak_rss_mb: float) -> tuple[dict, list[str]]:
    value, pct = tail(latencies)
    metrics = {
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000 * value, "ms"),
        "setup_s": (statistics.median(p["setup_s"] for p in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"latency_tail_ms is p{pct:.2f} of {len(run.latencies)} jobs",
        f"setup_s is the median of {len(setup)} fresh interpreters: "
        + " ".join(f"{p['setup_s']:.4f}" for p in setup),
        f"unscaled: jobs_per_s {len(run.latencies) / run.timed:.6g}, latency_p50_ms"
        f" {1000 * statistics.median(run.latencies):.6g}, latency_tail_ms {1000 * tail(run.latencies)[0]:.6g}",
    ]
    return metrics, notes


def per_layer(run: Run, latencies: list[float], tracer, setup: list[dict], workload_shapes: list) -> tuple[dict, list[str]]:
    stats = tracer.stats

    def stat(name, key="self_s"):
        return stats[name][key] if name in stats else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for op in ("parse", "mul", "add", "pow", "substitute", "str"):
        metrics[f"laurent.{op}.calls"] = (stat(f"laurent.{op}", "calls"), "count")
        metrics[f"laurent.{op}.self_s"] = (stat(f"laurent.{op}"), "s")
        metrics[f"laurent.{op}.terms_out"] = (stat(f"laurent.{op}", "terms_out"), "terms")
    for op in ("parse", "substitute"):  # their work is mostly in child add/mul/pow spans
        metrics[f"laurent.{op}.total_s"] = (stat(f"laurent.{op}", "total_s"), "s")
    laurent = [name for name in stats if name.startswith("laurent.")]
    terms = sum(stats[name]["terms_out"] for name in laurent)
    metrics["laurent.us_per_term"] = (1e6 * sum(stat(name) for name in laurent) / terms if terms else 0.0, "us")

    for op in ("apply", "weight_decompose", "image_decompose", "conjugate", "local_finiteness_probe"):
        metrics[f"derivation.{op}.self_s"] = (stat(f"derivation.{op}"), "s")
    probe = "derivation.local_finiteness_probe"
    probes = stat(probe, "calls")
    metrics[f"{probe}.chain_len"] = (stat(probe, "chain_len") / probes if probes else 0.0, "iterates")
    for kind, label in (("LocallyFinite", "locally_finite"), ("NotLocallyFinite", "not_locally_finite"),
                        ("Inconclusive", "inconclusive")):
        metrics[f"{probe}.{label}"] = (stat(probe, kind), "count")

    metrics["slices.build_slice.self_s"] = (stat("slices.build_slice"), "s")
    metrics["numtheory.bezout_multi.self_s"] = (stat("numtheory.bezout_multi"), "s")

    metrics["kernel.hilbert_basis.self_s"] = (stat("kernel.hilbert_basis"), "s")
    metrics["kernel.hilbert_basis.gens"] = (stat("kernel.hilbert_basis", "gens"), "count")
    metrics["kernel.kernel_in_B.self_s"] = (stat("kernel.kernel_in_B"), "s")
    oracle = "kernel.brute_force_kernel"
    rows = stat(oracle, "rows_scanned")
    metrics[f"{oracle}.self_s"] = (stat(oracle), "s")
    metrics[f"{oracle}.rows_scanned"] = (rows, "rows")
    metrics[f"{oracle}.useful_ratio"] = (stat(oracle, "solutions") / rows if rows else 0.0, "ratio")
    seen, repeats, calls = set(), 0, 0
    for shape in workload_shapes:
        if shape is None:
            continue
        calls += 1
        repeats += shape in seen
        seen.add(shape)
    metrics[f"{oracle}.repeat_shape_share"] = (repeats / calls if calls else 0.0, "ratio")
    for op in ("slice_coordinates", "reconstruct_from_slice_coordinates", "kernel_generators_localized"):
        metrics[f"kernel.{op}.self_s"] = (stat(f"kernel.{op}"), "s")

    from workloads import CLI_FORMS

    for form in CLI_FORMS:
        metrics[f"cli.{form}.self_s"] = (stat(f"cli.{form}"), "s")
    metrics["cli.load_problem.self_s"] = (stat("cli.load_problem"), "s")
    for code in (0, 1, 2):
        metrics[f"cli.exit{code}"] = (float(run.exits.get(code, 0)), "count")

    metrics["import.ssderiv_s"] = (statistics.median(p["ssderiv_s"] for p in setup), "s")
    metrics["import.numpy_s"] = (statistics.median(p["numpy_s"] for p in setup), "s")

    job_time = stat("bench.job", "total_s")
    for layer in LAYERS:
        names = [n for n in stats if n.split(".")[0] in ((layer, "numtheory") if layer == "slices" else (layer,))]
        metrics[f"{layer}.self_share"] = (sum(stat(n) for n in names) / job_time if job_time else 0.0, "ratio")

    traced = [t for t, on in zip(latencies, run.traced) if on]
    plain = [t for t, on in zip(latencies, run.traced) if not on]
    traced_rate = len(traced) / sum(traced) if traced else 0.0
    plain_rate = len(plain) / sum(plain) if plain else 0.0
    metrics["trace.jobs_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.jobs_per_s_untraced"] = (plain_rate, "1/s")
    metrics["trace.overhead_jobs_per_s"] = (plain_rate - traced_rate, "1/s")
    notes = [f"per-layer figures cover the {len(traced)} traced jobs of {len(run.latencies)}"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("algebra", "monoid", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    os.makedirs(OUT, exist_ok=True)

    # compiles bytecode before the probes time fresh imports
    import ssderiv  # noqa: F401
    import workloads
    from tracer import Tracer

    setup = [setup_probe(args.workload)]

    wl = workloads.make(args.workload, os.path.join(OUT, f"{args.workload}-files"))
    warmup = Run()
    attempt(wl, workloads.WARMUP_SEED, 0, warmup)
    if warmup.failed:
        print("\n".join(warmup.failures), file=sys.stderr)
        return 1
    tracer = Tracer() if args.trace else None
    speed = Speed()
    run = measure(wl, args.seed, args.seconds, speed, tracer,
                  lambda: setup.append(setup_probe(args.workload)), SETUP_PROBES - 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup.append(setup_probe(args.workload))
    sha = digest(wl, args.seed, run)
    latencies = scaled(run, speed)

    if tracer is None:
        metrics, notes = end_to_end(run, latencies, setup, peak_rss_mb)
    else:
        metrics, notes = per_layer(run, latencies, tracer, setup, warmup.shapes + run.shapes)
        from ladder import run_ladder

        metrics.update(run_ladder(tracer))
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))

    attempted = len(run.latencies)
    reference = _reference_digest(args.workload, args.seed)
    if run.timed >= MAX_STRETCH * args.seconds:
        notes.append(f"the host ran so slowly that the loop stopped at {run.timed:.1f} s unscaled")
    notes += [
        f"fail_ratio {run.failed / attempted:.6f} ratio ({run.failed} of {attempted} jobs failed)",
        f"digest {sha} over the first {wl.digest_jobs} jobs; reference "
        + ("none" if reference is None else "match" if reference == sha else f"differs ({reference})"),
    ]
    for failure in run.failures[:20]:
        print(f"failure: {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "notes": notes, "digest": sha, "failures": run.failures}, fh, indent=1)
    print(json.dumps(result))
    return 0


def _reference_digest(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


if __name__ == "__main__":
    sys.exit(main())
