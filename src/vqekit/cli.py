"""Command-line harness: vqe, adiabatic, estimate, and certify runs.

Configs are single JSON documents validated fail-closed: a key is accepted
only where the run reads it, and numbers must have the right type, be
finite and lie in range.  Every output is computed before the first file is
written, so a failed run leaves nothing behind.  All outputs are
deterministic for a fixed config and seed: JSON keys are sorted and floats
are written with repr, so reruns are byte-identical.

Exit codes: 0 success/converged, 1 config or IO error, 2 optimizer
budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import ansatz as _ansatz
from . import bounds as _bounds
from . import estimate as _estimate
from . import optimize as _optimize
from . import schedule as _schedule
from .errors import VqekitError
from .fermion import build_hamiltonian, jordan_wigner, load_integrals
from .pauli import PauliSum
from .rng import make_rng
from .simulator import StateVector, _expectation, expectation_and_variance

__all__ = ["main"]


def _fail(msg: str):
    raise VqekitError(msg)


class _Config:
    """One config object.  `get` and `[]` mark a key as read, and `done`
    refuses every key that no read took, so each key is stated once: in
    the read that uses it."""

    def __init__(self, d, where: str):
        if not isinstance(d, dict):
            _fail(f"{where}: expected an object")
        self.d, self.where, self.read = d, where, set()

    def __contains__(self, key) -> bool:
        return key in self.d

    def get(self, key: str, default=None):
        self.read.add(key)
        return self.d.get(key, default)

    def __getitem__(self, key: str):
        if key not in self.d:
            _fail(f"{self.where}: missing keys {[key]}")
        return self.get(key)

    def done(self) -> None:
        unknown = set(self.d) - self.read
        if unknown:
            _fail(f"{self.where}: unknown keys {sorted(unknown)}")


def _one_of(spec, where: str, a: str, b: str):
    """(key, value) for an object that gives key a or key b and nothing else."""
    spec = _Config(spec, where)
    if (a in spec) == (b in spec):
        _fail(f"{where}: give exactly one of {a} or {b}")
    key = a if a in spec else b
    value = spec[key]
    spec.done()
    return key, value


def _real(value, where: str) -> float:
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (real and math.isfinite(value)):
        _fail(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, where: str, lo: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < lo:
        _fail(f"{where}: expected an integer >= {lo}, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        _fail(f"{where}: expected a list, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        _fail(f"{where}: expected a string, got {value!r}")
    return value


def _indices(value, where: str) -> list[int]:
    return [_integer(p, f"{where}[{k}]", 0) for k, p in enumerate(_list(value, where))]


def _pairs(value, where: str, form: str) -> list[tuple[float, float]]:
    """A list of two-number lists, such as [re, im] or [lo, hi] pairs."""
    out = []
    for k, pair in enumerate(_list(value, where)):
        at = f"{where}[{k}]"
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"{at}: expected a {form} pair, got {pair!r}")
        out.append((_real(pair[0], at), _real(pair[1], at)))
    return out


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_pauli_sum(source, base: Path, where: str) -> PauliSum:
    """A Hamiltonian is either a path to a JSON file or an inline object."""
    if isinstance(source, str):
        data = _load_json(str(base / source))
    elif isinstance(source, dict):
        data = source
    else:
        _fail(f"{where}: expected a path or an inline object")
    return PauliSum.from_json_dict(data)


def _load_state(spec) -> StateVector:
    key, value = _one_of(spec, "state", "label", "amplitudes")
    if key == "label":
        return StateVector.from_label(_string(value, "state.label"))
    pairs = _pairs(value, "state.amplitudes", "[re, im]")
    return StateVector(np.array([complex(re, im) for re, im in pairs]))


def _json_text(obj) -> str:
    # allow_nan=False: a non-finite value is an error, never an Infinity token.
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(header: list[str], rows) -> str:
    # str(float) is repr(float), the shortest string that reads back exactly.
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(str, row)))
    return "\n".join(lines) + "\n"


def _seed(cfg: _Config, override: int | None) -> int:
    """The config seed, checked even when --seed overrides it."""
    seed = _integer(cfg["seed"], "seed", 0)
    return seed if override is None else override


def _certificates(mean: float, var: float, gap: float | None, alpha: float | None = None):
    """(bound inputs, certificates, stdout lines) for the moments: the
    Weinstein interval and, given a gap, the ground overlap or the reason
    it does not apply."""
    b = _bounds.BoundInputs(
        mean=mean,
        variance=var,
        gap=gap if gap is not None else math.inf,
        alpha=alpha,
    )
    lo, hi = _bounds.weinstein_interval(b)
    certs = {"mean": mean, "variance": var, "weinstein": [lo, hi]}
    lines = [
        f"mean {mean!r}, variance {var!r}",
        f"weinstein interval [{lo!r}, {hi!r}]",
    ]
    if gap is not None:
        try:
            g = _bounds.overlap_bound(b, "ground")
            certs["ground_overlap"] = g
            lines.append(f"ground overlap >= {g!r}")
        except VqekitError as exc:
            certs["ground_overlap"] = None
            certs["ground_overlap_note"] = str(exc)
            lines.append(f"ground overlap bound inapplicable: {exc}")
    return b, certs, lines


def _sampling_budget(h: PauliSum, epsilon: float, trunc_c: float):
    """(kept sum, dropped-term count, sampling precision) for a precision eps.

    Truncation takes at most C*eps of bias, so sampling gets the rest of the
    squared-error budget, eps^2 (1 - C^2); at C = 0 the precision is eps.
    """
    h_meas, k_star = _estimate.truncate_terms(h, epsilon, trunc_c)
    return h_meas, k_star, epsilon * math.sqrt(1.0 - trunc_c * trunc_c)


# ---------------------------------------------------------------- vqe


def _build_problem(spec, base: Path) -> PauliSum:
    key, source = _one_of(spec, "problem", "integrals", "hamiltonian")
    if key == "integrals":
        path = base / _string(source, "problem.integrals")
        return jordan_wigner(build_hamiltonian(load_integrals(str(path))))
    return _load_pauli_sum(source, base, "problem.hamiltonian")


def _build_ansatz(cfg: _Config, n_qubits: int):
    kind = cfg["kind"]
    order = _integer(cfg.get("order", 2), "ansatz.order", 1)
    if kind == "fermionic_ucc":
        if "occupied" not in cfg:
            _fail("ansatz: fermionic_ucc needs an occupied mode list")
        occ = _indices(cfg["occupied"], "ansatz.occupied")
        virt = sorted(set(range(n_qubits)) - set(occ))
        gens = _ansatz.fermionic_ucc_generators(n_qubits, occ, virt, order)
        ref = _ansatz.ReferenceState.from_occupied(n_qubits, occ)
    elif kind == "spin_cluster":
        gens = _ansatz.spin_cluster_generators(n_qubits, order)
        ref = _reference_from_cfg(cfg, n_qubits)
    elif kind == "suquca":
        gens = _ansatz.suquca_generators(n_qubits, order)
        ref = _reference_from_cfg(cfg, n_qubits)
    else:
        _fail(f"ansatz: unknown kind {kind!r}")
    # Spin-cluster families lean on the repeated product for expressiveness;
    # the fermionic families do not need the extra depth at these sizes.
    default_slices = 2 if kind == "spin_cluster" else 1
    relaxed = cfg.get("relaxed", False)
    if not isinstance(relaxed, bool):
        _fail(f"ansatz.relaxed: expected true or false, got {relaxed!r}")
    acfg = _ansatz.AnsatzConfig(
        generator_set=gens,
        trotter_slices=_integer(
            cfg.get("trotter_slices", default_slices), "ansatz.trotter_slices", 1
        ),
        relaxed=relaxed,
    )
    cfg.done()
    return ref, acfg


def _reference_from_cfg(cfg: _Config, n_qubits: int) -> "_ansatz.ReferenceState":
    spec = cfg.get("reference")
    if spec is None:
        _fail("ansatz: this kind needs a reference")
    key, value = _one_of(spec, "ansatz.reference", "label", "occupied")
    if key == "label":
        label = _string(value, "ansatz.reference.label")
        if len(label) != n_qubits:
            _fail("ansatz.reference: label length does not match qubit count")
        if set(label) - set("01"):
            _fail(f"ansatz.reference.label: expected only 0 and 1, got {label!r}")
        return _ansatz.ReferenceState(n_qubits=n_qubits, basis_index=int(label, 2))
    return _ansatz.ReferenceState.from_occupied(
        n_qubits, _indices(value, "ansatz.reference.occupied")
    )


def _run_optimizer(cfg: _Config, fn, x0, seed: int):
    method = cfg.get("method", "nelder_mead")
    tol = _real(cfg.get("tol", 1e-9), "optimizer.tol")
    max_evals = _integer(cfg.get("max_evals", 400), "optimizer.max_evals", 1)
    restarts = _integer(cfg.get("restarts", 0), "optimizer.restarts", 0)
    if method == "nelder_mead":
        cfg.done()
        return _optimize.nelder_mead(
            fn, x0, tol=tol, max_evals=max_evals, restarts=restarts
        )
    if method == "multistart":
        if "bounds" not in cfg:
            _fail("optimizer: multistart needs bounds")
        bounds = _pairs(cfg["bounds"], "optimizer.bounds", "[lo, hi]")
        n_starts = _integer(cfg.get("n_starts", 8), "optimizer.n_starts", 1)
        cfg.done()
        return _optimize.multistart(
            fn,
            bounds,
            n_starts=n_starts,
            rng=make_rng(seed),
            tol=tol,
            max_evals=max_evals,
            restarts=restarts,
        )
    _fail(f"optimizer: unknown method {method!r}")


def cmd_vqe(cfg: _Config, args: argparse.Namespace, base: Path) -> tuple[dict, list, int]:
    seed = _seed(cfg, args.seed)
    problem, ansatz_cfg = cfg["problem"], _Config(cfg["ansatz"], "ansatz")
    est_cfg = _Config(cfg.get("estimator", {}), "estimator")
    opt_cfg = _Config(cfg.get("optimizer", {}), "optimizer")
    gap = _real(cfg["gap"], "gap") if "gap" in cfg else None
    cfg.done()
    h = _build_problem(problem, base)
    ref, acfg = _build_ansatz(ansatz_cfg, h.n_qubits)

    # --exact replaces the mode, but a bad one is still refused.
    mode = est_cfg.get("mode", "exact")
    if mode not in ("exact", "frequentist", "bayesian"):
        _fail(f"estimator: unknown mode {mode!r}")
    mode = "exact" if args.exact else mode
    epsilon = _real(est_cfg.get("epsilon", 0.01), "estimator.epsilon")
    trunc_c = _real(est_cfg.get("truncation", 0.0), "estimator.truncation")
    grouping = est_cfg.get("grouping", "auto")
    if grouping not in ("auto", "singleton"):
        _fail(f"estimator: unknown grouping {grouping!r}")
    est_cfg.done()

    h_meas, _k_star, eps_sampling = _sampling_budget(h, epsilon, trunc_c)
    preparations = 0
    if mode == "exact":

        def objective(theta):
            state = _ansatz.prepare_state(ref, acfg, theta)
            return _expectation(state, h)

    else:
        if grouping == "auto":
            # Covariances at the reference state, theta = 0.
            start = ref.to_state()
            plan = _estimate.build_groups(h_meas, _estimate.exact_covariances(h_meas, start))
        else:
            plan = _estimate.MeasurementPlan(
                groups=tuple((i,) for i in _estimate._measurable_indices(h_meas))
            )
        rng = make_rng(seed)

        def objective(theta):
            nonlocal preparations
            state = _ansatz.prepare_state(ref, acfg, theta)
            rep = _estimate.estimate_expectation(
                lambda: state, h_meas, plan, eps_sampling, mode=mode, rng=rng
            )
            preparations += rep.total_preparations
            return rep.value

    x0 = np.zeros(_ansatz.parameter_count(acfg))
    res = _run_optimizer(opt_cfg, objective, x0, seed)

    final_state = _ansatz.prepare_state(ref, acfg, res.x)
    _, certs, _ = _certificates(*expectation_and_variance(final_state, h), gap)
    result = {
        "final_energy": float(res.value),
        "parameters": [float(v) for v in res.x],
        "evaluations": res.evaluations,
        "converged": res.converged,
        "mode": mode,
        "epsilon": epsilon,
        "seed": seed,
        "total_preparations": preparations,
        "certificates": certs,
    }
    files = {
        "result.json": _json_text(result),
        "trace.csv": _csv_text(
            ["evaluation", "value"], [(i, float(v)) for i, v in res.trace]
        ),
    }
    line = f"final energy {res.value!r} after {res.evaluations} evaluations"
    return files, [line], 0 if res.converged else 2


# ---------------------------------------------------------- adiabatic


def cmd_adiabatic(cfg: _Config, args: argparse.Namespace, base: Path) -> tuple[dict, list, int]:
    _seed(cfg, args.seed)
    h_i = _load_pauli_sum(cfg["initial_hamiltonian"], base, "initial_hamiltonian")
    h_p = _load_pauli_sum(cfg["problem_hamiltonian"], base, "problem_hamiltonian")
    grid_cfg = _Config(cfg.get("a_grid", {}), "a_grid")
    a_grid = np.linspace(
        _real(grid_cfg.get("start", 0.0), "a_grid.start"),
        _real(grid_cfg.get("stop", 1.0), "a_grid.stop"),
        _integer(grid_cfg.get("points", 1001), "a_grid.points", 1),
    )
    grid_cfg.done()
    taus = [_real(t, f"taus[{k}]") for k, t in enumerate(_list(cfg["taus"], "taus"))]
    if not taus:
        _fail("config: taus must be nonempty")
    if min(taus) <= 0:
        _fail("config: taus must be positive")
    family = cfg.get("family", "spline")
    objective = cfg.get("objective", "energy")
    steps = cfg.get("steps")
    steps = _integer(steps, "steps", 1) if steps is not None else None
    # Only bang-bang schedules have switches; 2 is path_study's default.
    n_switches = cfg.get("n_switches", 2) if family == "bang_bang" else 2
    n_switches = _integer(n_switches, "n_switches", 0)
    cfg.done()

    # The study refuses an overlong tau before any eigensolve.
    study = _schedule.path_study(h_i, h_p, taus, family, objective, steps, n_switches)
    levels = _schedule.spectrum_along_path(h_i, h_p, a_grid)
    spec_rows = [
        (float(a), *[float(v) for v in row]) for a, row in zip(a_grid, levels)
    ]
    spec_header = ["A"] + [f"level_{k}" for k in range(levels.shape[1])]

    path_rows = []
    traj_rows = []
    success_rows = []
    for base_rec, opt_rec in zip(study.records[::2], study.records[1::2]):
        tau = base_rec.tau
        t_grid = np.linspace(0.0, tau, 201)
        lin_sched = _schedule.Schedule.linear(tau)
        opt_sched = _schedule.make_schedule(family, tau, np.asarray(opt_rec.params))
        for t, g in zip(t_grid, lin_sched.evaluate(t_grid)):
            path_rows.append((tau, "linear", float(t), float(g)))
        for t, g in zip(t_grid, opt_sched.evaluate(t_grid)):
            path_rows.append((tau, family, float(t), float(g)))
        for rec, name in ((base_rec, "linear"), (opt_rec, family)):
            for s, ov in zip(rec.trajectory_s, rec.trajectory_overlap):
                traj_rows.append((tau, name, float(s), float(ov)))
        success_rows.append(
            (
                tau,
                float(base_rec.success),
                float(opt_rec.success),
                " ".join(repr(p) for p in opt_rec.params),
            )
        )

    lines = []
    if levels.shape[1] > 1:
        gaps = levels[:, 1] - levels[:, 0]
        k = int(np.argmin(gaps))
        lines.append(f"minimum spectral gap {float(gaps[k])!r} at A={float(a_grid[k])!r}")
    for row in success_rows:
        lines.append(
            f"tau {row[0]!r}: linear success {row[1]!r}, "
            f"optimized ({family}) {row[2]!r}"
        )
    files = {
        "spectrum.csv": _csv_text(spec_header, spec_rows),
        "path.csv": _csv_text(["tau", "family", "t", "g"], path_rows),
        "trajectory.csv": _csv_text(["tau", "family", "s", "overlap"], traj_rows),
        "success.csv": _csv_text(
            ["tau", "linear_success", "optimized_success", "optimized_params"],
            success_rows,
        ),
    }
    return files, lines, 0


# ----------------------------------------------------------- estimate


def cmd_estimate(cfg: _Config, args: argparse.Namespace, base: Path) -> tuple[dict, list, int]:
    seed = _seed(cfg, args.seed)
    h = _load_pauli_sum(cfg["hamiltonian"], base, "hamiltonian")
    state = _load_state(cfg["state"])
    epsilon = _real(cfg.get("epsilon", 0.1), "epsilon")
    mode = cfg.get("mode", "frequentist")
    if mode not in ("frequentist", "bayesian"):
        _fail(f"config: unknown mode {mode!r}")
    trunc_c = _real(cfg.get("truncation", 0.0), "truncation")
    plans_cfg = cfg.get("plans", "auto")
    cfg.done()
    h_meas, k_star, eps_sampling = _sampling_budget(h, epsilon, trunc_c)

    plans: list[tuple[str, _estimate.MeasurementPlan]] = []
    if plans_cfg == "auto":
        cov = _estimate.exact_covariances(h_meas, state)
        plans.append(("auto", _estimate.build_groups(h_meas, cov)))
    else:
        for k, entry in enumerate(_list(plans_cfg, "plans")):
            where = f"plans[{k}]"
            entry = _Config(entry, where)
            groups = _list(entry["groups"], f"{where}.groups")
            plan = _estimate.MeasurementPlan(
                groups=tuple(
                    tuple(_indices(g, f"{where}.groups[{j}]")) for j, g in enumerate(groups)
                )
            )
            name = _string(entry.get("name", f"plan-{k + 1}"), f"{where}.name")
            entry.done()
            plans.append((name, plan))
        if not plans:
            _fail("plans: expected at least one plan")

    lines = []
    plan_text = []
    best = None
    for name, plan in plans:
        plan.validate_against(h_meas)
        n_exp = _estimate._priced_groups(state, h_meas, plan, eps_sampling, mode)[1]
        coeff = n_exp * epsilon * epsilon
        lines.append(f"plan {name}: {len(plan.groups)} groups")
        plan_text.append(f"# plan {name}")
        dump = _estimate.format_plan(plan, h_meas)
        if dump:
            lines.append(dump)
            plan_text.append(dump)
        lines.append(
            f"plan {name}: expected preparations {coeff:g}/epsilon^2 = {n_exp:g}"
        )
        if best is None or n_exp < best[2]:
            best = (name, plan, n_exp)

    files = {"plan.txt": "\n".join(plan_text) + "\n"}
    if not args.exact:
        name, plan, _ = best
        rng = make_rng(seed)
        rep = _estimate.estimate_expectation(
            lambda: state,
            h_meas,
            plan,
            eps_sampling,
            mode=mode,
            rng=rng,
            credible_level=0.95 if mode == "bayesian" else None,
        )
        lines.append(
            f"sampled ({mode}, plan {name}): value {rep.value!r}, "
            f"estimator variance {rep.variance_of_estimator!r}, "
            f"{rep.total_preparations} preparations"
        )
        report_dict = rep.to_json_dict()
        report_dict["plan"] = name
        report_dict["epsilon"] = epsilon
        report_dict["seed"] = seed
        report_dict["truncated_terms"] = k_star
        files["report.json"] = _json_text(report_dict)
    return files, lines, 0


# ------------------------------------------------------------ certify


def cmd_certify(cfg: _Config, args: argparse.Namespace, base: Path) -> tuple[dict, list, int]:
    # Certificates draw nothing, so the seed is optional, but it is checked.
    _integer(cfg.get("seed", 0), "seed", 0)
    direct = "mean" in cfg or "variance" in cfg
    if direct == ("hamiltonian" in cfg or "state" in cfg):
        _fail("config: give mean/variance or hamiltonian/state, not both")
    if direct:
        mean = _real(cfg["mean"], "mean")
        var = _real(cfg["variance"], "variance")
    else:
        h = _load_pauli_sum(cfg["hamiltonian"], base, "hamiltonian")
        mean, var = expectation_and_variance(_load_state(cfg["state"]), h)
    gap = _real(cfg["gap"], "gap") if "gap" in cfg else None
    alpha = _real(cfg["alpha"], "alpha") if "alpha" in cfg else None
    cfg.done()

    b, report, lines = _certificates(mean, var, gap, alpha)
    if gap is not None:
        e = _bounds.overlap_bound(b, "excited")
        report["excited_overlap"] = e
        lines.append(f"excited overlap >= {e!r} (premise-dependent)")
    if alpha is not None:
        db = _bounds.delos_blinder(b)
        dbs = _bounds.delos_blinder(b, sqrt_variance=True)
        report["delos_blinder"] = db
        report["delos_blinder_sqrt"] = dbs
        lines.append(f"eigenvalue >= {db!r} (variance form)")
        lines.append(f"eigenvalue >= {dbs!r} (deviation form)")
    return {"certificates.json": _json_text(report)}, lines, 0


# ----------------------------------------------------------------- main

COMMANDS = {
    "vqe": cmd_vqe,
    "adiabatic": cmd_adiabatic,
    "estimate": cmd_estimate,
    "certify": cmd_certify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vqekit",
        description="variational and adiabatic eigensolver toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        if name in ("vqe", "estimate"):
            p.add_argument(
                "--exact",
                action="store_true",
                help="bypass sampling (analytic expectations only)",
            )
    args = parser.parse_args(argv)

    try:
        cfg_path = Path(args.config)
        cfg = _Config(_load_json(str(cfg_path)), "config")
        base = cfg_path.resolve().parent
        # Checked even when --out wins.
        out = _string(cfg.get("output_dir", "."), "output_dir")
        files, lines, code = COMMANDS[args.command](cfg, args, base)
        out_dir = base / (out if args.out is None else args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text, encoding="utf-8")
    except (VqekitError, OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
