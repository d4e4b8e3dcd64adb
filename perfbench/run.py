"""Offline benchmark of hopftwist: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop with one
client: each repetition runs in a fresh worker process (perfbench/worker.py)
after the previous one has ended, until the next one would end after
``--seconds``; at least one repetition always runs (three for cli-mix).
Two more workers per run only build the inputs, so that set-up time has at
least three samples.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced repetition and prints the per-layer metrics, the
tracing overhead among them; the spans go to perfbench/out/.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an
oracle fails and 2 when the checkout holds no library to measure.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import tracer  # noqa: E402

# the workloads BENCHMARK.json declares; `--workload all` runs these
WORKLOADS = ("paper-suite", "twist-ladder", "cli-mix")
# runs only when asked for by name: one repetition takes 30 s or more, which
# the run budget of the declared benchmark does not leave room for
EXTRA_WORKLOADS = ("corep-32",)

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cmd_p50_ms", "ms"),
    ("cmd_tail_ms", "ms"),
)

SETUP_ONLY_WORKERS = 2
# cli-mix runs at least three passes: the median pass then ignores one slow
# one, and its 45 command latencies have a percentile with ten beyond it
MIN_REPS = {"cli-mix": 3}
WORKER_TIMEOUT_S = 170.0


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    With ten samples or fewer no such percentile exists, and the maximum is
    reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return "max", ordered[-1]
    k = n - 10  # 1-based rank with n - k = 10 samples above it
    return f"p{100.0 * k / n:.0f}", ordered[k - 1]


def summary(values: list[float]) -> dict:
    label, value = tail(values)
    return {"n": len(values), "p50": statistics.median(values), "tail": label, "tail_value": value}


def spawn(workload: str, seed: int, rep: int, trace: int, setup_only: bool = False) -> dict:
    """Run one worker; return its result with the parent-side set-up time."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "run", workload,
        "--seed", str(seed), "--rep", str(rep), "--trace", str(trace), "--src", SRC,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{workload}.jsonl")]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    err_path = os.path.join(OUT, f"worker-{workload}.stderr")
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True
        )
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = None
            lines = []
            for line in proc.stdout:
                if ready is None and line.strip() == "READY":
                    ready = time.perf_counter() - t0
                lines.append(line)
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
    results = [ln for ln in lines if ln.startswith("RESULT ")]
    if code != 0 or ready is None or not results:
        with open(err_path, encoding="utf-8") as fh:
            detail = fh.read()[-2000:]
        raise RuntimeError(f"worker for {workload} exited with {code}:\n{detail}")
    result = json.loads(results[-1][len("RESULT "):])
    result["setup_s"] = ready
    return result


def rep_wall(result: dict) -> float:
    """Wall time of a repetition's timed calls, oracle checks excluded."""
    return sum(op["wall_s"] for op in result["ops"])


def command_latencies(result: dict) -> list[float]:
    totals: dict[str, float] = {}
    for op in result["ops"]:
        totals[op["command"]] = totals.get(op["command"], 0.0) + op["wall_s"]
    return list(totals.values())


def verdicts(reps: list[dict]) -> dict:
    """Attempted and failed operations over all repetitions, and the problems."""
    attempted = sum(len(r["ops"]) for r in reps)
    problems = [
        f"rep {i}: {op['label']}: {p}"
        for i, r in enumerate(reps)
        for op in r["ops"]
        for p in op["problems"]
    ]
    failed = sum(1 for r in reps for op in r["ops"] if op["problems"])
    # outputs of one seed must be byte-identical across repetitions
    digests = [r["outputs"] for r in reps]
    if any(d != digests[0] for d in digests[1:]):
        attempted += 1
        failed += 1
        problems.append("outputs differ between repetitions at one seed")
    expected = sorted({op["label"] for r in reps for op in r["ops"] if op["expected_failure"]})
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "expected_failures": expected,
        "fail_ratio": failed / attempted if attempted else 0.0,
    }


def machine(reps: list[dict]) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        **reps[0]["env"],
    }


def src_lines() -> int:
    total = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[dict]]:
    """End-to-end metrics: repetitions until the next would pass `seconds`."""
    setups = [
        spawn(workload, seed, -1, 0, setup_only=True)["setup_s"]
        for _ in range(SETUP_ONLY_WORKERS)
    ]
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        reps.append(spawn(workload, seed, len(reps), 0))
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS.get(workload, 1) and elapsed + elapsed / len(reps) > seconds:
            break
    setups += [r["setup_s"] for r in reps]
    walls = [rep_wall(r) for r in reps]
    cpus = [sum(op["cpu_s"] for op in r["ops"]) for r in reps]
    rss = [r["maxrss_mb"] for r in reps]
    commands = [1000.0 * c for r in reps for c in command_latencies(r)]
    samples = {
        "wall_s": summary(walls),
        "cpu_s": summary(cpus),
        "setup_s": summary(setups),
        "peak_rss_mb": summary(rss),
        "cmd_latency_ms": summary(commands),
    }
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "cmd_p50_ms": statistics.median(commands),
        "cmd_tail_ms": tail(commands)[1],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, samples, reps


def measure_traced(workload: str, seed: int) -> tuple[dict, dict, list[dict]]:
    """Per-layer metrics from one traced repetition, against one untraced."""
    plain = spawn(workload, seed, 0, 0)
    traced = spawn(workload, seed, 1, 1)
    plain_wall = plain["build_s"] + rep_wall(plain)
    traced_wall = traced["build_s"] + rep_wall(traced)
    values = tracer.layer_metrics(traced["layers"], traced_wall, plain_wall)
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in tracer.per_layer_metrics()
    }
    # calls, self, total and failures of every span name, the ones whose
    # times are not metrics included
    samples = {"spans": traced["spans"], "untraced_wall_s": plain_wall, "layers": traced["layers"]}
    return metrics, samples, [plain, traced]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        metrics, samples, reps = measure_traced(workload, seed)
    else:
        metrics, samples, reps = measure(workload, seed, seconds)
    verdict = verdicts(reps)
    result = {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "repetitions": len(reps),
        "machine": machine(reps),
        "src_lines": src_lines(),
        "samples": samples,
        "fail_ratio": verdict["fail_ratio"],
        "expected_failures": verdict["expected_failures"],
        "problems": verdict["problems"],
    }
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({"meta": meta, "result": result, "reps": reps}, fh, indent=1)
    for name, m in metrics.items():
        print(f"{workload:14s} {name:40s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({"meta": meta}))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="hopftwist offline benchmark")
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "hopftwist", "__init__.py")):
        print(f"error: no hopftwist sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
