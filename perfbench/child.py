"""One workload run in a fresh interpreter (started by run.py).

Set-up (import previsio, generate and write the inputs) ends with a
line ``READY`` on standard output, so that the parent can time set-up
from interpreter start.  The measured loop is one closed-loop client:
each operation starts when the previous one has returned.  Outputs are
compared with their known answers between operations, untimed.  A
fixed calibration kernel runs before set-up, after it and between
operations; its times let the parent remove the machine's speed
swings from the timings.  The last line of standard output is one
JSON object.

    python3 perfbench/child.py --workload NAME --seed N --seconds T
        [--ops N] [--trace] [--setup-only] [--deadline S]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import time
from fractions import Fraction
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # so that at least ten latencies lie beyond the 90th percentile
KERNEL_SHARE = 0.02  # kernel time after an operation, as a share of its time
SETUP_KERNEL_UNITS = 8


def kernel_seconds(units: int = 1) -> float:
    """Wall time per unit of a fixed piece of exact arithmetic: one unit
    (about a millisecond) eliminates a 6 x 9 matrix of fractions with
    the simplex's row update.  It stands for the machine's speed at this
    moment on previsio's kind of work; more units average out more of
    the machine's jitter."""
    start = time.perf_counter()
    for _ in range(units):
        rows = [
            [Fraction((7 * i + 3 * j) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(9)]
            for i in range(6)
        ]
        for col in range(6):
            inv = 1 / rows[col][col]
            prow = rows[col] = [a * inv for a in rows[col]]
            for r in range(6):
                f = rows[r][col]
                if r != col and f:
                    rows[r] = [a - f * p for a, p in zip(rows[r], prow)]
    return (time.perf_counter() - start) / units


def kernel_units(seconds: float) -> int:
    return max(1, min(64, round(seconds * KERNEL_SHARE / 1e-3)))


def _import_previsio():
    import previsio
    import previsio.cli
    import previsio.conglomerability
    import previsio.gains
    import previsio.jsonio
    import previsio.lp
    import previsio.model  # noqa: F401  (every traced module is loaded)

    origin = Path(previsio.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"previsio imported from {origin}, not from this checkout's src/")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, help="run exactly this many operations")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--deadline", type=float, default=150.0,
                        help="stop the loop after this many seconds whatever else holds")
    args = parser.parse_args()

    kernel_before = kernel_seconds(SETUP_KERNEL_UNITS)
    _import_previsio()
    from workloads import WORKLOADS

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    traced_from = time.perf_counter()

    workdir = ROOT / "perfbench" / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        corpus = WORKLOADS[args.workload](args.seed, workdir)
        print("READY", flush=True)
        setup_kernel = (kernel_before + kernel_seconds(SETUP_KERNEL_UNITS)) / 2
        result = {"setup_kernel": setup_kernel}
        if not args.setup_only:
            result.update(_measure(corpus, args, tracer, traced_from))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def _check(op, output, tracer) -> str | None:
    """The operation's mismatch with its known answer, untimed and
    untraced; outputs are not kept, so memory does not grow with the
    number of operations."""
    if tracer is not None:
        tracer.enabled = False
    try:
        return op.mismatch(output)
    except Exception as exc:
        return f"{op.kind}: checking the output raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.enabled = True


def _measure(corpus, args, tracer, traced_from: float) -> dict:
    ops = corpus.ops
    window = min(corpus.window, args.ops) if args.ops else corpus.window
    latencies: list[float] = []
    # kernels[i] and kernels[i + 1] surround operation i: (time per unit, units)
    kernels = [(kernel_seconds(), 1)]
    failures: list[str] = []
    window_end = None
    snapshot = None
    start = time.perf_counter()
    done = 0
    while True:
        op = ops[done % len(ops)]
        t0 = time.perf_counter()
        try:
            output, error = op.call(), None
        except (Exception, SystemExit) as exc:  # a CLI usage error exits
            output, error = None, f"{op.kind}: raised {exc!r}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        units = kernel_units(t1 - t0)
        kernels.append((kernel_seconds(units), units))
        done += 1
        if done == window:
            window_end = t1
            if tracer is not None:
                snapshot = tracer.snapshot()
        if error is None:
            error = _check(op, output, tracer)
        if error is not None:
            failures.append(error)
        elapsed = time.perf_counter() - start
        if elapsed >= args.deadline:
            break
        if args.ops:
            if done >= args.ops:
                break
        elif (elapsed >= args.seconds and done >= max(MIN_OPS, window)
              and done % corpus.stop_every == 0):
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    result = {
        "ops": done,
        "failed": len(failures),
        "failures": failures[:5],
        "latencies": latencies,
        "kernels": kernels,
        "rss_mib": rss_mib,
        "window": window,
    }
    if tracer is not None and snapshot is not None:
        stats, counts = snapshot
        layers = tracing.layer_metrics(stats, counts, window, window_end - traced_from)
        result["layers"] = {k: list(v) for k, v in layers.items()}
        result["absent"] = tracing.absent_metrics(tracer, layers)
        result["absent_functions"] = tracer.absent
        result["trace_wall"] = window_end - traced_from
    return result


if __name__ == "__main__":
    main()
