"""vqekit benchmark: one seeded closed-loop workload, timed and checked.

    python3 perfbench/run.py --workload vqe_h2 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; vqekit is imported from `src/`.
With `--trace 0` the run measures untraced for `--seconds` and prints the
end-to-end metrics.  With `--trace 1` it measures untraced for half the
time, replays the same tasks with every vqekit function wrapped by the
span recorder, and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object; the lines before it describe
the environment and the run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
# Pinned before numpy loads, here and in every set-up child.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced sizes and one set-up sample (smoke test)")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ------------------------------------------------------------------ set-up


def setup_child(args) -> int:
    """Fresh interpreter: time `import vqekit` plus building the inputs."""
    t0 = time.perf_counter()
    import vqekit  # noqa: F401

    t1 = time.perf_counter()
    scipy_modules = sum(1 for m in sys.modules if m.startswith("scipy."))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, small=args.small)
    wl.setup()
    t2 = time.perf_counter()
    print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0, "scipy_submodules": scipy_modules}))
    return 0


def measure_setup(args) -> list[dict]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-child",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ] + (["--small"] if args.small else [])
    out = []
    for _ in range(1 if args.small else SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up child exited {proc.returncode}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ------------------------------------------------------------- environment


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    info = {"threads_env": BLAS_THREADS}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{cfg.get('name')} {cfg.get('version')}"
    except Exception:  # older numpy: no dict form
        info["library"] = "unknown"
    return info


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "uncontrolled": "CPU frequency scaling and other tenants of a shared host",
    }


# ----------------------------------------------------------------- metrics


def end_to_end(rec, setup: list[dict]) -> tuple[dict, str]:
    """The gated metrics, and a note with the ungated medians and counts.

    Stage, solve and evaluation times are gated at their 90th percentile
    over the run, not the median: on a shared host the share of time this
    process runs at full speed changes from run to run, and the median
    follows it while the upper tail stays put (see README.md).
    """
    import numpy as np

    s = rec.samples

    def pct(key: str, p: float) -> float:
        return float(np.percentile(s[key], p))

    m = {
        "setup_s": (statistics.median(x["setup_s"] for x in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ham_build_s_p90": (pct("ham_build_s", 90), "s"),
        "reference_s_p90": (pct("reference_s", 90), "s"),
        "solve_s_p90": (pct("solve_s", 90), "s"),
        "eval_ms_p90": (pct("eval_ms", 90), "ms"),
    }
    note = (
        f"p90 over {len(s['ham_build_s'])} builds, {len(s['reference_s'])} references, "
        f"{len(s['solve_s'])} solves, {len(s['eval_ms'])} evaluations; not gated: "
        f"solve_s p50 {pct('solve_s', 50):.4g}, eval_ms p50 {pct('eval_ms', 50):.4g}"
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, note


def per_layer(wl, summary: dict, untraced, setup: list[dict], wall_u: float, wall_t: float) -> dict:
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def mean_us(name):
        calls = get(name, "calls")
        return get(name, "total_s") / calls * 1e6 if calls else 0.0

    m: dict[str, tuple[float, str]] = {
        "import.vqekit_s": (statistics.median(x["import_s"] for x in setup), "s"),
        "import.scipy_submodules": (statistics.median(x["scipy_submodules"] for x in setup), "count"),
    }
    for name in (
        "pauli.PauliSum.simplify", "pauli.PauliSum.is_hermitian", "pauli.PauliSum.to_matrix",
        "simulator.exact_eigensystem", "fermion.jordan_wigner",
        "simulator.expectation_and_variance", "ansatz.prepare_state",
        "simulator.apply_pauli_exponential", "simulator.sample_group",
        "estimate.estimate_expectation", "simulator.evolve_schedule", "optimize.nelder_mead",
    ):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in ("simulator.expectation_and_variance", "ansatz.prepare_state", "simulator.sample_group"):
        m[f"{name}.mean_us"] = (mean_us(name), "us")
    m["pauli.commutes.calls"] = (get("pauli.commutes", "calls"), "count")
    for name in (
        "fermion.build_hamiltonian", "estimate.beta_density",
        "estimate.convolve_posteriors", "estimate.build_groups", "estimate.exact_covariances",
        "schedule.optimize_path", "schedule.baseline_record", "schedule.spectrum_along_path",
        "schedule.make_schedule",
    ):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")

    x = untraced.extra
    evolve_self = get("simulator.evolve_schedule", "self_s")
    evolve_steps = get("simulator.evolve_schedule", "calls") * getattr(wl, "steps", 0)
    evals = get("optimize.Objective.__call__", "calls")
    solves = get("optimize.nelder_mead", "calls")
    m["simulator.evolve_steps_per_s"] = (evolve_steps / evolve_self if evolve_self else 0.0, "1/s")
    m["estimate.preparations"] = (x["preparations"], "count")
    m["estimate.prep_ratio"] = (
        x["preparations"] / x["expected_preparations"] if x["expected_preparations"] else 0.0, "ratio"
    )
    m["estimate.shots_per_s"] = (x["preparations"] / x["estimate_s"] if x["estimate_s"] else 0.0, "1/s")
    m["estimate.coverage_gap"] = (abs(0.95 - x["covered"] / x["intervals"]) if x["intervals"] else 0.0, "ratio")
    m["optimize.overhead_us_per_eval"] = (get("optimize.nelder_mead", "self_s") / evals * 1e6 if evals else 0.0, "us")
    m["optimize.evals_per_solve"] = (evals / solves if solves else 0.0, "count")

    modules = ("pauli", "fermion", "simulator", "ansatz", "schedule", "estimate", "optimize")
    module_self = {mod: sum(v["self_s"] for k, v in summary.items() if k.startswith(mod + ".")) for mod in modules}
    harness = sum(v["self_s"] for k, v in summary.items() if k.startswith("harness"))
    for mod in modules:
        m[f"{mod}.self_s"] = (module_self[mod], "s")
    m["harness.self_s"] = (harness, "s")
    m["trace.wall_s"] = (wall_t, "s")
    m["trace.accounted_frac"] = ((sum(module_self.values()) + harness) / wall_t, "ratio")
    m["trace.overhead_frac"] = (wall_t / wall_u - 1.0, "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "vqekit" / "__init__.py").is_file():
        print(f"error: no vqekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    if args.setup_child:
        return setup_child(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not workloads.H2_INTEGRALS.is_file():
        print(f"error: missing {workloads.H2_INTEGRALS}", file=sys.stderr)
        return 2
    from tracer import Tracer

    setup = measure_setup(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, small=args.small)
    wl.setup()
    try:
        wl.warm_up()
    except Exception:
        traceback.print_exc()
    print("env " + json.dumps(environment(args), sort_keys=True))
    print("setup " + json.dumps(setup))
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = workloads.Record()
    t0 = time.perf_counter()
    n_tasks = workloads.run_tasks(wl, untraced, seconds)
    wall_u = time.perf_counter() - t0
    attempted, failed = untraced.attempted, untraced.failed

    if not args.trace:
        metrics, note = end_to_end(untraced, setup)
        print(f"{wl.name}: {n_tasks} tasks in {wall_u:.3f} s; {note}")
    else:
        tracer = Tracer()
        traced = workloads.Record(tracer=tracer)
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.span("harness.run"):
                workloads.run_tasks(wl, traced, None, n_tasks=n_tasks)
            wall_t = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        attempted += traced.attempted
        failed += traced.failed
        summary = tracer.summary()
        metrics = per_layer(wl, summary, untraced, setup, wall_u, wall_t)
        print(
            f"{wl.name}: {n_tasks} tasks; untraced {wall_u:.3f} s, traced {wall_t:.3f} s, "
            f"tracing overhead {100 * (wall_t / wall_u - 1):.1f}%, "
            f"{len(tracer.starts)} spans"
        )
    print(f"{wl.name}: attempted {attempted}, failed {failed}, fail_frac {failed / max(1, attempted):.4f}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
