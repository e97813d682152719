"""Benchmark of the gridnav CLI: training and mission flight, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload fly-forest400 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, both modes

One run invokes the workload's CLI command (``gridnav train`` or ``gridnav
evaluate``) in fresh processes, one at a time, until ``--seconds`` have
passed; untraced, at least three times, so set-up is measured several times.  Each
invocation gets its own inputs, derived from the seed and its index
(``workloads.py``).  Every invocation's artifacts are
checked (``checks.py``) and hashed; invocations with the same inputs must
agree, within a run and with every earlier run of the seed on the same code.

``--trace 0`` reports the end-to-end metrics, measured with one timestamp
per decision and per update.  ``--trace 1`` alternates untraced and traced
invocations and reports the per-layer metrics of the traced ones
(``tracer.py``) plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (CLI
invocations) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import EXPECTED_EXIT, check_run, outputs_sha256  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

DEFAULT_SECONDS = 36
#: invocations per untraced run, so that set-up is measured several times
MIN_RUNS = 3
#: a run must end within 180 s, so no CLI invocation may run past this
RUN_LIMIT_S = 170.0
STATE_DIR = ROOT / ".perfbench"


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def code_digest() -> str:
    """Digest of the program and the benchmark: hashes are compared per code."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read without git; 'unknown' outside a git checkout."""
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
    return "unknown"


def make_checkpoint(path: Path, net_seed: int) -> None:
    """A seeded, untrained checkpoint with fresh optimiser state."""
    sys.path.insert(0, str(ROOT / "src"))
    from gridnav import nn

    net = nn.init_network(nn.ArchitectureSpec(), seed=net_seed)
    nn.save_checkpoint(path, net, nn.init_adam(net.params), extra={"rule": "eddqn"})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_cli(workload, argv: list[str], work: Path, run_dir: Path, traced: bool,
            timeout: float) -> dict:
    """One fresh-process CLI invocation in ``work``, which ``argv``'s paths are
    relative to (so no artifact names where the checkout lives); the result
    carries its problems."""
    result_path = run_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT / "src"), str(result_path),
           "1" if traced else "0", "--", *argv]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=work, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {timeout:.0f} s"], "traced": traced}
    wall = time.monotonic() - spawned
    if proc.returncode != 0 or not result_path.is_file():
        return {"problems": [f"worker exited {proc.returncode}:\n{proc.stdout[-2000:]}"],
                "traced": traced}
    result = json.loads(result_path.read_text())
    result.update(spawned=spawned, wall=wall, traced=traced)
    out_dir = str(run_dir / "out")
    result["problems"] = check_run(workload.command, out_dir, result)
    if not result["problems"]:
        result["sha256"] = outputs_sha256(out_dir)
    return result


def end_to_end(runs: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics over the untraced invocations, and their sample counts."""
    setups, gaps, updates, rss = [], [], [], []
    steps, busy = 0, 0.0
    for r in runs:
        stamps = r["decisions"]
        setups.append(stamps[0] - r["spawned"])
        gaps += [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])]
        updates += [1000.0 * (end - start) for start, end in r["updates"]]
        steps += len(stamps)
        busy += r["main_end"] - stamps[0]
        rss.append(r["peak_rss_kb"] / 1024.0)
    metrics = {
        "setup_s": statistics.median(setups),
        "steps_per_s": steps / busy,
        "step_ms_p50": percentile(gaps, 50),
        "step_ms_p90": percentile(gaps, 90),
        "update_ms_p50": percentile(updates, 50),
        "update_ms_p90": percentile(updates, 90),
        "peak_rss_mb": statistics.median(rss),
    }
    counts = {"setup_s": len(setups), "steps_per_s": steps, "step_ms_p50": len(gaps),
              "step_ms_p90": len(gaps), "update_ms_p50": len(updates),
              "update_ms_p90": len(updates), "peak_rss_mb": len(rss)}
    return metrics, counts


def per_layer(runs: list[dict]) -> dict[str, float]:
    """Median over the traced invocations of each per-layer metric."""
    traced = [layer_metrics(json.loads(Path(r["spans"]).read_text()))
              for r in runs if r["traced"]]
    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    plain = [r["main_end"] - r["main_start"] for r in runs if not r["traced"]]
    slow = [r["main_end"] - r["main_start"] for r in runs if r["traced"]]
    metrics["bench.trace_overhead_ratio"] = statistics.median(slow) / statistics.median(plain)
    return metrics


def check_determinism(name: str, size: str, seed: int, runs: list[dict]) -> None:
    """Invocations with the same inputs must write the same artifacts: in this
    run, and in every earlier run of the seed on the same code.  Those that
    differ get a problem."""
    store_path = STATE_DIR / "hashes.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    prefix = f"{name}/{size}/{code_digest()[:16]}/seed{seed}"
    for r in runs:
        if "sha256" not in r:
            continue
        key = f"{prefix}/{r['index']}"
        expected = store.setdefault(key, r["sha256"])
        if r["sha256"] != expected:
            r["problems"].append(f"outputs_sha256 {r['sha256']} differs from {expected}")
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Invoke the CLI until ``seconds`` have passed; with ``trace``, each
    invocation's inputs run once untraced and once traced."""
    workload = WORKLOADS[name]
    started = time.monotonic()
    work = STATE_DIR / "work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        checkpoint = work / "checkpoint.npz"
        if workload.command == "evaluate":
            make_checkpoint(checkpoint, workload.net_seed(seed))

        runs: list[dict] = []
        per_input = 2 if trace else 1
        while True:
            index, traced = divmod(len(runs), per_input)
            run_dir = work / f"run{len(runs)}"
            run_dir.mkdir()
            (run_dir / "run.cfg").write_text(workload.config_text(seed, index, size))
            argv = workload.argv(seed, index, size, f"{run_dir.name}/run.cfg",
                                 checkpoint.name, f"{run_dir.name}/out")
            timeout = max(RUN_LIMIT_S - (time.monotonic() - started), 1.0)
            runs.append(run_cli(workload, argv, work, run_dir, bool(traced), timeout))
            runs[-1]["index"] = index
            if len(runs) % per_input:
                continue
            walls = [r["wall"] for r in runs if "wall" in r]
            next_end = (time.monotonic() - started
                        + per_input * (statistics.median(walls) if walls else 0.0))
            enough = len(runs) >= (2 if trace else MIN_RUNS)
            if (enough and next_end > seconds) or next_end > RUN_LIMIT_S:
                break

        check_determinism(name, size, seed, runs)
        report = {"runs": runs, "failed": sum(1 for r in runs if r["problems"]),
                  "sha256": runs[0].get("sha256", "none")}
        # an invocation that ran to its expected exit is timed even if its
        # artifacts failed a check: the result is then marked incorrect
        timed = [r for r in runs if r.get("exit_code") in EXPECTED_EXIT[workload.command]
                 and r["decisions"]]
        plain, traced = [r for r in timed if not r["traced"]], [r for r in timed if r["traced"]]
        if trace and plain and traced:
            report["metrics"] = per_layer(timed)
            shutil.copyfile(traced[-1]["spans"], STATE_DIR / f"last-trace-{name}.json")
        elif not trace and plain:
            report["metrics"], report["samples"] = end_to_end(timed)
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def machine(runs: list[dict], seed: int) -> dict:
    """Machine and settings; numpy and BLAS facts as the CLI process saw them."""
    facts = next((r["machine"] for r in runs if "machine" in r), {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        **facts,
        "blas_threads_setting": child_env()["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "seed": seed,
    }


def report_run(name: str, seed: int, trace: int, report: dict, spec: dict) -> dict | None:
    """Print one run's table; returns its result object, or None without metrics."""
    runs = report["runs"]
    print(f"perfbench: {name} seed {seed} trace {trace}: {len(runs)} CLI runs, "
          f"{report['failed']} failed, error_ratio {report['failed'] / len(runs):.4f}, "
          f"outputs_sha256 {report['sha256']}")
    for n, r in enumerate(runs):
        for problem in r["problems"]:
            print(f"  run {n} FAILED: {problem}")
    if "metrics" not in report:
        return None
    samples = report.get("samples", {})
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = report["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        n = f"  (n={samples[m['name']]})" if m["name"] in samples else ""
        print(f"  {m['name']:<48} {value:>14.4f} {m['unit']}{n}")
    return {"correct": report["failed"] == 0, "attempted": len(runs),
            "failed": report["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer (default: both)")
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'smoke' shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridnav" / "cli.py").is_file():
        print(f"perfbench: no gridnav sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    STATE_DIR.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else [0, 1]
    results, machine_printed = {}, False
    for name in names:
        for trace in traces:
            report = run_workload(name, args.seed, args.seconds, bool(trace), args.size)
            if not machine_printed:
                print("perfbench: machine " + json.dumps(machine(report["runs"], args.seed)))
                machine_printed = True
            result = report_run(name, args.seed, trace, report, spec)
            if result is None:
                print(f"perfbench: {name}: no successful CLI run to measure", file=sys.stderr)
                return 1
            results[f"{name}/trace{trace}"] = result
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{key}/{m}": v for key, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
