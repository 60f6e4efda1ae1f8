"""Benchmark runner: one named workload, whole rounds, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  Every round is a fresh worker process
(cold caches, as a CLI user has) with BLAS and OpenMP pinned to one thread.
Rounds repeat until ``--seconds`` have passed, at least one.  Untraced runs
also start ``PROBES_PER_ROUND`` processes that only import the package
before every round and after the last.

The checks run in this process after the rounds, against references that
do not import the package (refs.py).  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (medians over rounds and set-up
probes) when --trace is 0, and its per-layer metrics when --trace is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

PROBES_PER_ROUND = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    # bytecode caches are written next to the sources, as an installed
    # package has them, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(args: list[str], env: dict, stdin: str, deadline: float, importtime: bool = False) -> tuple:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [os.path.join(HERE, "worker.py")] + args + [repr(time.time())]
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(stdin, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args[0]} ran past the {RUN_BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), err


def evaluate(name: str, inputs: dict, rounds: list[dict], ref: dict) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over all rounds; diagnostics to stderr."""
    wl = workloads.WORKLOADS[name]
    correct, attempted, failed = True, 0, 0
    for r in rounds:
        checks = wl["check"](inputs, r["out"], r["post"], ref)
        ops = {op for op, _, _ in checks}
        if len(ops) != r["calls"]:
            correct = False
            print(f"{len(ops)} checked operations for {r['calls']} timed calls", file=sys.stderr)
        bad_ops = set()
        for op, check, ok in checks:
            if ok:
                continue
            bad_ops.add(op)
            if (op, check) not in workloads.KNOWN_FAULTS:
                correct = False
                print(f"FAILED CHECK {op}: {check}", file=sys.stderr)
        attempted += r["calls"]
        failed += len(bad_ops)
    return correct, attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + RUN_BUDGET_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "densediv", "__init__.py")):
        raise BenchError(f"no src/densediv under {root}: run from the root of a source checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    env = worker_env(root)
    wl = workloads.WORKLOADS[args.workload]
    inputs = json.dumps(wl["inputs"](args.seed))

    # one unrecorded start first: it writes the bytecode caches an installed
    # package already has
    run_worker(["--setup-only"], env, "", deadline)

    def probe_setups() -> list[float]:
        if args.trace:
            return []
        return [run_worker(["--setup-only"], env, "", deadline)[0]["setup_s"] for _ in range(PROBES_PER_ROUND)]

    # set-up probes go before every round and after the last, so that they
    # sample the machine over the whole run rather than its first seconds
    rounds, setups = [], []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        setups += probe_setups()
        result, err = run_worker([args.workload, str(args.trace)], env, inputs, deadline, importtime=bool(args.trace))
        if args.trace:
            result["layers"]["setup.import_s"] = result["import_s"]
            result["layers"]["setup.import_scipy_s"] = spans.scipy_import_s(err)
            result["layers"]["trace.wall_s"] = result["wall_s"]
        rounds.append(result)
    setups += probe_setups()

    ref = wl["references"](json.loads(inputs))
    correct, attempted, failed = evaluate(args.workload, json.loads(inputs), rounds, ref)

    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: statistics.median(r["layers"][m["name"]] for r in rounds) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{args.workload}: {len(rounds)} round(s), seed {args.seed}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
