"""One round of one workload in a fresh process; started by run.py.

    python3 perfbench/worker.py <workload> <trace 0|1> <spawn time>
    python3 perfbench/worker.py --setup-only <spawn time>

The inputs arrive as JSON on stdin.  The worker imports densediv.cli (the
set-up every CLI process pays), makes the workload's program calls, timing
each one, reads its peak RSS, then makes the untimed cross-route calls and
prints one JSON object on stdout.  <spawn time> is the runner's time.time()
just before it started this process, so setup_s covers interpreter start-up
as well as the import.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from types import SimpleNamespace


def main(argv: list[str]) -> None:
    setup_only = argv[0] == "--setup-only"
    spawned = float(argv[-1])
    t0 = time.perf_counter()
    import densediv.cli  # noqa: F401  (the set-up being measured)

    import_s = time.perf_counter() - t0
    setup_s = time.time() - spawned
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    from densediv import families, gzero, rho

    import workloads

    name, trace = argv[0], argv[1] == "1"
    wl = workloads.WORKLOADS[name]
    inputs = json.load(sys.stdin)

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    op_s = []

    def timed(fn, *args):
        t = time.perf_counter()
        result = fn(*args)
        op_s.append(time.perf_counter() - t)
        return result

    # modules, not functions: attributes are read at call time, so the
    # tracer's wrappers are the ones called
    dd = SimpleNamespace(families=families, gzero=gzero, rho=rho)
    out = wl["run"](dd, inputs, timed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = tracer.metrics() if tracer else None
    post = wl["post"](dd, inputs, out)
    print(json.dumps({
        "setup_s": setup_s,
        "import_s": import_s,
        "wall_s": sum(op_s),
        "calls": len(op_s),
        "op_s": op_s,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "out": out,
        "post": post,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
