"""Known-answer benchmark of previsio, standard library only.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds T] [--trace 0|1]

Run from a checkout: previsio is imported from its ``src/``.  Every
run of a workload is a fresh interpreter (``child.py``) with a fixed
``PYTHONHASHSEED`` and no ``PREVISIO_*`` variable, so caches, process
globals and the environment cannot carry over between runs.

Times are reported at a fixed reference speed.  The machine's speed
swings by up to a factor of two within seconds when other tenants
load it, so every operation is timed between two runs of a fixed
calibration kernel (``child.kernel_seconds``), and its wall time is
scaled by REF_KERNEL_S over the mean of the two kernel times.  A
change to previsio moves the operation and not the kernel.  The raw
wall-clock figures go to the machine record.

With ``--trace 0`` the run reports the end-to-end metrics; set-up is
timed in eight set-up-only interpreters and in the measured one, and
the median is reported.  With ``--trace 1`` it reports the per-layer
metrics of a traced interpreter over the workload's first operations,
and the tracing overhead against an untraced interpreter running the
same operations.

Standard output holds one row per workload, a machine record, and as
its last line one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("classical", "random-mixed", "inference")
SETUP_ONLY_RUNS = 8
BUDGET_S = 170.0  # every run ends well within three minutes
REF_KERNEL_S = 1e-3  # the calibration kernel's time at the reference speed


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PREVISIO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(args: list[str], timeout: float) -> tuple[float, dict | None]:
    """Run child.py; return (seconds from start to READY, result)."""
    lines: list[str] = []
    ready: list[float] = []
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(CHILD), *args],
        stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True,
    )

    def read() -> None:
        for line in proc.stdout:
            if not ready and line.strip() == "READY":
                ready.append(time.perf_counter() - started)
            else:
                lines.append(line)

    reader = threading.Thread(target=read)
    reader.start()
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"child {' '.join(args)} timed out") from None
    finally:
        reader.join()
        proc.stdout.close()
    if proc.returncode != 0 or not ready:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}")
    return ready[0], (json.loads(lines[-1]) if lines else None)


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _normalised(latencies: list[float], kernels: list[list]) -> list[float]:
    """Operation times at the reference speed; the two kernels around
    an operation are weighted by their units."""
    out = []
    for i, t in enumerate(latencies):
        (before, n), (after, m) = kernels[i], kernels[i + 1]
        out.append(t * REF_KERNEL_S * (n + m) / (before * n + after * m))
    return out


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def _end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", workload, "--seed", str(seed)]
    runs = []
    for _ in range(SETUP_ONLY_RUNS):
        runs.append(_spawn([*common, "--setup-only"], deadline - time.perf_counter()))
    remaining = deadline - time.perf_counter()
    runs.append(_spawn(
        [*common, "--seconds", str(seconds), "--deadline", str(remaining - 15)],
        remaining,
    ))
    setups = [setup * REF_KERNEL_S / result["setup_kernel"] for setup, result in runs]
    result = runs[-1][1]
    raw = result["latencies"]
    latencies = _normalised(raw, result["kernels"])
    correct = result["ops"] - result["failed"]
    metrics = {
        "ops_per_s": (correct / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (_p90(latencies), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["rss_mib"], "MiB"),
    }
    info = {
        "ops": result["ops"],
        "failed": result["failed"],
        "failures": result["failures"],
        "fail_ratio": result["failed"] / result["ops"],
        "wall_clock": {
            "ops_per_s": correct / sum(raw),
            "latency_p50_s": statistics.median(raw),
            "latency_p90_s": _p90(raw),
            "setup_s": statistics.median(setup for setup, _ in runs),
            "kernel_median_s": statistics.median(k for k, _ in result["kernels"]),
        },
    }
    return metrics, info


def _per_layer(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", workload, "--seed", str(seed)]
    remaining = deadline - time.perf_counter()
    _, traced = _spawn(
        [*common, "--seconds", str(seconds), "--trace", "--deadline", str(remaining / 2 - 15)],
        remaining / 2,
    )
    # the untraced reference runs the traced window's operations in a
    # fresh interpreter, so that the two rates compare the same work
    window = traced["window"]
    remaining = deadline - time.perf_counter()
    _, plain = _spawn(
        [*common, "--ops", str(window), "--deadline", str(remaining - 15)], remaining
    )
    if traced.get("layers") is None or len(plain["latencies"]) < window:
        raise BenchError("the traced run did not complete its window of operations")
    traced_times = _normalised(traced["latencies"], traced["kernels"])[:window]
    plain_times = _normalised(plain["latencies"], plain["kernels"])[:window]
    speed = sum(traced_times) / sum(traced["latencies"][:window])
    metrics = {
        name: (value * speed if unit == "s" else value, unit)
        for name, (value, unit) in traced["layers"].items()
    }
    traced_rate = window / sum(traced_times)
    plain_rate = window / sum(plain_times)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_ratio"] = (traced_rate / plain_rate, "1")
    metrics["trace.wall_s"] = (traced["trace_wall"] * speed, "s")
    info = {
        "ops": traced["ops"] + plain["ops"],
        "failed": traced["failed"] + plain["failed"],
        "failures": traced["failures"] + plain["failures"],
        "fail_ratio": (traced["failed"] + plain["failed"]) / (traced["ops"] + plain["ops"]),
        "window_ops": window,
        "absent": traced["absent"],
        "absent_functions": traced["absent_functions"],
    }
    return metrics, info


def _format(value: float) -> str:
    return f"{value:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "previsio" / "__init__.py").is_file():
        print(f"perfbench: no previsio sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    record = machine_record(args.seed)
    merged: dict[str, dict] = {}
    attempted = failed = 0
    for workload in workloads:
        load_before = os.getloadavg()
        deadline = time.perf_counter() + BUDGET_S
        run = _per_layer if args.trace else _end_to_end
        try:
            metrics, info = run(workload, args.seed, args.seconds, deadline)
        except BenchError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        attempted += info["ops"]
        failed += info["failed"]
        absent = info.get("absent", {})
        cells = [
            f"{name}={'absent' if name in absent else _format(value)} {unit}"
            for name, (value, unit) in metrics.items()
        ]
        cells.append(f"fail_ratio={_format(info['fail_ratio'])} 1")
        print(f"{workload}: " + "  ".join(cells))
        for name, reason in absent.items():
            print(f"{workload}: {name} absent: {reason}")
        for function, reason in info.get("absent_functions", {}).items():
            print(f"{workload}: traced function {function} absent: {reason}")
        for failure in info["failures"]:
            print(f"{workload}: mismatch: {failure}")
        record[workload] = {
            **info,
            "trace": args.trace,
            "seconds": args.seconds,
            "load_before": load_before,
            "load_after": os.getloadavg(),
        }
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, (value, unit) in metrics.items():
            merged[prefix + name] = {"value": value, "unit": unit}
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
