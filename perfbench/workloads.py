"""The three benchmark workloads: seeded inputs, closed-loop tasks, checks.

Each workload is driven by one caller that waits for every result before
it sends the next request.  Task `i` of a run draws its inputs from
`numpy.random.default_rng([seed, i])`, so a seed fixes every input and a
traced pass can replay exactly the tasks of an untraced one.  vqekit sees
only the generated inputs.

vqekit functions are always called through the package attribute
(`vq.nelder_mead`, not an imported name) so that the tracer's wrappers,
installed after this module is imported, see the calls.
"""

from __future__ import annotations

import math
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import vqekit as vq

ROOT = Path(__file__).resolve().parent.parent
H2_INTEGRALS = ROOT / "configs" / "h2_sto3g.ints"

# Key of the warm-up task: never used by a measured task.
WARM_UP = 1_000_000
# Key of per-run (not per-task) inputs.
RUN_INPUTS = 1_000_001


# ---------------------------------------------------------------- record


class Record:
    """Timing samples, counters and the pass/fail ledger of one pass.

    A unit is the smallest result that is checked: one VQE solve, one
    estimate call, one annealing instance.  A unit fails when any of its
    checks fails or when it raises.  `skew` moves every reference value in
    the direction that makes a correct result fail; the smoke test uses it
    to prove that wrong references are caught.
    """

    def __init__(self, tracer=None, skew: float = 0.0):
        self.tracer = tracer
        self.skew = skew
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.extra: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._unit: str | None = None
        self._unit_failed = False

    @contextmanager
    def time(self, key: str):
        t = perf_counter()
        yield
        self.samples[key].append(perf_counter() - t)

    def time_repeated(self, key: str, fn, reps: int):
        """Mean time of `reps` calls as one sample; for sub-millisecond stages."""
        t = perf_counter()
        for _ in range(reps):
            out = fn()
        self.samples[key].append((perf_counter() - t) / reps)
        return out

    def objective(self, fn):
        """Wrap an objective so each evaluation adds an `eval_ms` sample."""
        evals = self.samples["eval_ms"]
        span = self.tracer.span if self.tracer is not None else None

        def timed(x):
            t = perf_counter()
            if span is None:
                v = fn(x)
            else:
                with span("harness.objective"):
                    v = fn(x)
            evals.append((perf_counter() - t) * 1e3)
            return v

        return timed

    # ------------------------------------------------------------ checks

    def begin(self, unit: str) -> None:
        self.attempted += 1
        self._unit = unit
        self._unit_failed = False

    def end(self) -> None:
        self._unit = None

    def check(self, what: str, ok: bool) -> None:
        if ok:
            return
        if self._unit is None:
            raise RuntimeError("check outside a unit")
        if not self._unit_failed:
            self.failed += 1
            self._unit_failed = True
        self.failures.append(f"{self._unit}: {what}")

    def close(self, what: str, value: float, ref: float, tol: float) -> None:
        ref = ref + self.skew
        self.check(f"{what}: |{value!r} - {ref!r}| > {tol}", abs(value - ref) <= tol)

    def at_most(self, what: str, value: float, ref: float, tol: float) -> None:
        ref = ref - self.skew
        self.check(f"{what}: {value!r} > {ref!r} + {tol}", value <= ref + tol)

    def at_least(self, what: str, value: float, ref: float, tol: float) -> None:
        ref = ref + self.skew
        self.check(f"{what}: {value!r} < {ref!r} - {tol}", value >= ref - tol)

    def exception(self, label: str) -> None:
        """Count the exception being handled against the open unit."""
        if self._unit is None:
            self.begin(label)
        self.check("raised " + traceback.format_exc(limit=3), False)
        self.end()


# ------------------------------------------------------ input generators


def ising_instance(rng: np.random.Generator, n: int, min_gap: float = 0.05):
    """Random fields and all-pairs couplings with a non-degenerate ground.

    Returns the Hermitian (coefficient, letters) pairs of
    H_p = sum_q f_q Z_q + sum_{p<q} J_pq Z_p Z_q.  Draws that leave the two
    lowest classical energies closer than `min_gap` are rejected and drawn
    again from the same stream, so a seed always yields the same instance.
    """
    spins = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for _ in range(100):
        f = rng.normal(0.0, 0.5, n)
        j = rng.normal(0.0, 1.0, len(pairs))
        energy = spins @ f + sum(c * spins[:, p] * spins[:, q] for c, (p, q) in zip(j, pairs))
        lowest = np.sort(energy)[:2]
        if lowest[1] - lowest[0] >= min_gap:
            break
    else:
        raise RuntimeError("no non-degenerate Ising instance in 100 draws")
    terms = [(float(c), _letters(n, {q: "Z"})) for q, c in enumerate(f)]
    terms += [(float(c), _letters(n, {p: "Z", q: "Z"})) for c, (p, q) in zip(j, pairs)]
    return terms


def _letters(n: int, ops: dict[int, str]) -> str:
    """Pauli letters with qubit 0 rightmost, as PauliString expects."""
    return "".join(ops.get(q, "I") for q in range(n - 1, -1, -1))


def _ucc(n_modes: int, n_electrons: int):
    occupied = list(range(n_electrons))
    virtual = list(range(n_electrons, n_modes))
    gens = vq.fermionic_ucc_generators(n_modes, occupied, virtual, 2)
    ref = vq.ReferenceState.from_occupied(n_modes, occupied)
    return ref, vq.AnsatzConfig(generator_set=gens)


def _qubit_hamiltonian(ints):
    return vq.jordan_wigner(vq.build_hamiltonian(ints)).simplify()


def _energy(state, h) -> float:
    return vq.expectation_and_variance(state, h)[0]


# -------------------------------------------------------------- workloads


class Workload:
    """One workload; `small` shrinks every size for the smoke test."""

    name = ""
    max_evals = 0
    warm_evals = 0

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def setup(self) -> None:
        """Build the vqekit inputs every task shares."""

    def task(self, i: int, rec: Record) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One task on an unmeasured key with the smallest optimizer budget.

        It pays first-call costs (lazy imports, BLAS start-up, caches on
        the shared inputs) before timing starts; its checks are ignored.
        """
        full = self.max_evals
        self.max_evals = self.warm_evals
        try:
            self.task(WARM_UP, Record())
        finally:
            self.max_evals = full


class VqeH2(Workload):
    """H2/STO-3G, order-2 fermionic UCC, exact-mode Nelder-Mead to 1e-6 Ha."""

    name = "vqe_h2"
    max_evals = 2000
    warm_evals = 7

    def setup(self) -> None:
        self.ints = vq.load_integrals(str(H2_INTEGRALS))
        self.ref, self.cfg = _ucc(4, 2)

    def task(self, i: int, rec: Record) -> None:
        x0 = self.rng(i).uniform(-0.5, 0.5, len(self.cfg.generator_set))
        with rec.time("ham_build_s"):
            h = _qubit_hamiltonian(self.ints)
        with rec.time("reference_s"):
            ground = vq.exact_eigensystem(h)[0][0]
        rec.begin(f"solve {i}")
        fn = rec.objective(lambda th: _energy(vq.prepare_state(self.ref, self.cfg, th), h))
        with rec.time("solve_s"):
            res = vq.nelder_mead(fn, x0, tol=1e-12, max_evals=self.max_evals, restarts=2)
        rec.close("VQE energy vs exact ground", res.value, ground, 1e-6)
        rec.end()


TWO_SPIN = [(-1.0, "XX"), (-1.0, "YY"), (1.0, "ZZ"), (1.0, "ZI"), (1.0, "IZ")]
CORRELATED_PLAN = ((0, 1), (2,), (3, 4))


class EstimateShots(Workload):
    """Repeated seeded estimate_expectation calls on a mix of three inputs."""

    name = "estimate_shots"

    def setup(self) -> None:
        self.ints = vq.load_integrals(str(H2_INTEGRALS))
        ref, cfg = _ucc(4, 2)
        theta = 0.3 + self.rng(RUN_INPUTS).uniform(-0.02, 0.02, len(cfg.generator_set))
        self.h2_state = vq.prepare_state(ref, cfg, theta)
        self.s01 = vq.StateVector.from_label("01")
        self.correlated = vq.MeasurementPlan(groups=CORRELATED_PLAN)
        self.h2_eps = 0.05 if self.small else 0.01

    def _calls(self, two, h2):
        """(label, h, state, plan, epsilon, mode, exact value, expected shots)."""
        out = []
        for label, h, state, plan, eps, mode in (
            ("two-spin auto frequentist", two, self.s01, None, 0.1, "frequentist"),
            ("two-spin correlated bayesian", two, self.s01, self.correlated, 0.1, "bayesian"),
            ("H2 UCC auto frequentist", h2, self.h2_state, None, self.h2_eps, "frequentist"),
        ):
            exact = vq.expectation_and_variance(state, h)[0]
            if plan is None:
                plan = vq.build_groups(h, vq.exact_covariances(h, state))
            expected = vq.expected_preparations(plan, state, h, eps)
            out.append((label, h, state, plan, eps, mode, exact, expected))
        return out

    def task(self, i: int, rec: Record) -> None:
        with rec.time("ham_build_s"):
            two = vq.PauliSum.hermitian(TWO_SPIN)
            h2 = _qubit_hamiltonian(self.ints)
        with rec.time("reference_s"):
            calls = self._calls(two, h2)
        solve = 0.0
        for k, (label, h, state, plan, eps, mode, exact, expected) in enumerate(calls):
            rec.begin(f"round {i}: {label}")
            bayes = mode == "bayesian"
            rng = self.rng(i, k)
            t = perf_counter()
            rep = vq.estimate_expectation(
                lambda: state, h, plan, eps, mode=mode, rng=rng,
                credible_level=0.95 if bayes else None,
            )
            dt = perf_counter() - t
            solve += dt
            rec.samples["eval_ms"].append(dt * 1e3)
            sigma = math.sqrt(rep.variance_of_estimator)
            rec.close("estimate within 5 sigma of exact", rep.value, exact, 5.0 * sigma)
            lo, hi = rep.credible_interval if bayes else (rep.value - 2 * sigma, rep.value + 2 * sigma)
            rec.extra["intervals"] += 1
            rec.extra["covered"] += lo <= exact <= hi
            rec.extra["preparations"] += rep.total_preparations
            rec.extra["expected_preparations"] += expected
            rec.extra["estimate_s"] += dt
            rec.end()
        rec.samples["solve_s"].append(solve)


class AnnealIsing(Workload):
    """Transverse field to a seeded 5-qubit Ising problem: spectrum, path at tau 10."""

    name = "anneal_ising"
    tau = 10.0
    warm_evals = 3

    def setup(self) -> None:
        self.n = 3 if self.small else 5
        self.steps = 40 if self.small else 400
        self.max_evals = 8 if self.small else 45
        self.a_grid = np.linspace(0.0, 1.0, 101 if self.small else 1001)
        self.h_i = vq.PauliSum.hermitian(
            [(-1.0, _letters(self.n, {q: "X"})) for q in range(self.n)]
        )

    def _final_energy(self, start, sched, h_p, tau) -> float:
        final = vq.evolve_schedule(start, sched, self.h_i, h_p, tau, self.steps)
        return _energy(final, h_p)

    def task(self, i: int, rec: Record) -> None:
        terms = ising_instance(self.rng(i), self.n)
        tau = self.tau

        # A task takes seconds, so each timed stage is cut into many short
        # samples: the 90th percentile of a run is steady only with dozens
        # of them.  One build takes about 75 us; a sample is the mean of 5,
        # and 8 samples are taken at every stage boundary of the task.
        def build():
            for _ in range(8):
                h = rec.time_repeated("ham_build_s", lambda: vq.PauliSum.hermitian(terms), 5)
            return h

        h_p = build()
        parts = []
        for segment in np.array_split(self.a_grid, 10):
            with rec.time("reference_s"):
                parts.append(vq.spectrum_along_path(self.h_i, h_p, segment))
        spectrum = np.concatenate(parts)
        build()
        rec.begin(f"instance {i} tau {tau}")
        vq.schedule.baseline_record(self.h_i, h_p, tau, steps=self.steps)
        build()
        found = []

        def optimizer(run, x0):
            # tol 0: every solve spends the whole budget, so solve time
            # does not move with how fast a random instance converges.
            res = vq.nelder_mead(rec.objective(run), x0, tol=0.0, max_evals=self.max_evals)
            found.append(res)
            return res

        with rec.time("solve_s"):
            path = vq.optimize_path(
                "spline", self.h_i, h_p, tau, steps=self.steps, optimizer=optimizer
            )
        build()
        # Row 0 is A = 0 (the problem Hamiltonian), the last row A = 1.
        for row, h in ((spectrum[0], h_p), (spectrum[-1], self.h_i)):
            exact = vq.exact_eigensystem(h)[0]
            rec.close("spectrum endpoint", float(np.max(np.abs(row - exact))), 0.0, 1e-9)
        start = vq.ground_state(self.h_i)[1]
        tuned = vq.schedule.make_schedule("spline", tau, np.asarray(path.params))
        e_opt = self._final_energy(start, tuned, h_p, tau)
        e_lin = self._final_energy(start, vq.Schedule.linear(tau), h_p, tau)
        rec.at_most("optimized energy vs linear baseline", e_opt, e_lin, 1e-9)
        rec.close("recorded optimum energy", e_opt, found[0].value, 1e-9)
        rec.end()
        build()


WORKLOADS = {w.name: w for w in (VqeH2, EstimateShots, AnnealIsing)}


def run_tasks(wl: Workload, rec: Record, seconds: float | None, n_tasks: int | None = None) -> int:
    """Closed loop: run task after task for `seconds` (or `n_tasks` tasks).

    A task starts only if one as long as the last would end in time, so a
    run does not overshoot `seconds` by most of a multi-second task.
    """
    t0 = perf_counter()
    i = 0
    last = 0.0
    while (perf_counter() - t0 + last < seconds) if n_tasks is None else (i < n_tasks):
        t = perf_counter()
        try:
            wl.task(i, rec)
        except Exception:
            rec.exception(f"task {i}")
        i += 1
        last = perf_counter() - t
    for line in rec.failures:
        print(f"{wl.name}: FAILED {line}", file=sys.stderr)
    return i
