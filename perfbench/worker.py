"""One measured CLI run: ``gridnav`` invoked in-process in a fresh interpreter.

Usage: python3 worker.py <src dir> <result.json> <trace 0|1> -- <gridnav argv>

Untraced, the run takes one timestamp per agent decision and a start and end
stamp per ``train_step`` call.  Traced, every layer boundary becomes a span
(see ``tracer.py``) and the spans are written to ``spans.json`` beside the
result.  Both record the losses and the final parameters' finiteness, which
the output checks need, and the process's peak RSS.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import resource
import sys
import time
import traceback


def blas_facts(np) -> dict:
    """numpy's BLAS and the thread count it runs with, where it can be asked."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
             "blas_threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                facts["blas_threads"] = getter()
                return facts
    return facts


def main(argv: list[str]) -> int:
    src, result_path, trace = argv[0], argv[1], argv[2] == "1"
    cli_argv = argv[argv.index("--") + 1:]
    sys.path.insert(0, src)

    import numpy as np

    from gridnav import cli
    from gridnav.agent import phases

    tracer = None
    main_fn = cli.main
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap("cli.main", cli.main)

    decisions: list[float] = []
    updates: list[tuple[float, float]] = []
    losses: list[float] = []
    nets: list[object] = []
    clock = time.monotonic

    epsilon_greedy, train_step, run_mission = phases.epsilon_greedy, phases.train_step, \
        cli.run_mission

    def stamped_epsilon_greedy(*args, **kwargs):
        decisions.append(clock())
        return epsilon_greedy(*args, **kwargs)

    def stamped_train_step(*args, **kwargs):
        start = clock()
        result = train_step(*args, **kwargs)
        if result is not None:
            updates.append((start, clock()))
            losses.append(float(result[2]))
        return result

    def kept_run_mission(*args, **kwargs):
        report, checkpoint, env = run_mission(*args, **kwargs)
        nets.append(checkpoint.value_net)
        return report, checkpoint, env

    phases.epsilon_greedy = stamped_epsilon_greedy
    phases.train_step = stamped_train_step
    cli.run_mission = kept_run_mission

    error = None
    start = clock()
    try:
        code = main_fn(cli_argv)
    except Exception:  # a crash is a measured outcome, reported to the parent
        code, error = None, traceback.format_exc()
    end = clock()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "exit_code": code,
        "error": error,
        "main_start": start,
        "main_end": end,
        "decisions": decisions,
        "updates": updates,
        "losses_finite": all(math.isfinite(x) for x in losses),
        "params_finite": all(bool(np.isfinite(v).all()) for net in nets
                             for v in net.params.values()),
        "peak_rss_kb": peak_rss_kb,
        "machine": blas_facts(np),
    }
    if tracer is not None:
        spans_path = os.path.join(os.path.dirname(result_path), "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        result["spans"] = spans_path
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
