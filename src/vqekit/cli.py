"""Command-line harness: vqe, adiabatic, estimate, and certify runs.

Configs are single JSON documents validated fail-closed: unknown keys are
rejected with their path, and numbers must have the right type, be finite
and lie in range.  Every output is computed before the first file is
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

__all__ = ["main", "cmd_vqe", "cmd_adiabatic", "cmd_estimate", "cmd_certify"]


def _fail(msg: str):
    raise VqekitError(msg)


def _check_keys(d, where: str, required: set, optional: set = frozenset()):
    if not isinstance(d, dict):
        _fail(f"{where}: expected an object")
    unknown = set(d) - required - set(optional)
    if unknown:
        _fail(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        _fail(f"{where}: missing keys {sorted(missing)}")


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


def _load_state(spec, where: str) -> StateVector:
    _check_keys(spec, where, set(), {"label", "amplitudes"})
    if ("label" in spec) == ("amplitudes" in spec):
        _fail(f"{where}: give exactly one of label or amplitudes")
    if "label" in spec:
        return StateVector.from_label(_string(spec["label"], f"{where}.label"))
    amps = []
    for k, pair in enumerate(_list(spec["amplitudes"], f"{where}.amplitudes")):
        at = f"{where}.amplitudes[{k}]"
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"{at}: expected a [re, im] pair, got {pair!r}")
        amps.append(complex(_real(pair[0], at), _real(pair[1], at)))
    return StateVector(np.array(amps))


def _json_text(obj) -> str:
    # allow_nan=False: a non-finite value is an error, never an Infinity token.
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _write_outputs(cfg: dict, override: str | None, base: Path, files: dict) -> None:
    """Create the output directory and write every file; called last."""
    if override is None:
        override = _string(cfg.get("output_dir", "."), "output_dir")
    p = base / override
    p.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (p / name).write_text(text, encoding="utf-8")


def _seed_of(cfg: dict, override: int | None) -> int:
    if override is not None:
        return override
    if "seed" not in cfg:
        _fail("config: a seed is required")
    return _integer(cfg["seed"], "seed", 0)


def _sampling_budget(h: PauliSum, epsilon: float, trunc_c: float):
    """(kept sum, dropped-term count, sampling precision) for a precision eps.

    Truncation takes at most C*eps of bias, so sampling gets the rest of the
    squared-error budget, eps^2 (1 - C^2); at C = 0 the precision is eps.
    """
    h_meas, k_star = _estimate.truncate_terms(h, epsilon, trunc_c)
    return h_meas, k_star, epsilon * math.sqrt(1.0 - trunc_c * trunc_c)


# ---------------------------------------------------------------- vqe


def _build_problem(cfg: dict, base: Path) -> PauliSum:
    _check_keys(cfg, "problem", set(), {"integrals", "hamiltonian"})
    if ("integrals" in cfg) == ("hamiltonian" in cfg):
        _fail("problem: give exactly one of integrals or hamiltonian")
    if "integrals" in cfg:
        path = base / _string(cfg["integrals"], "problem.integrals")
        return jordan_wigner(build_hamiltonian(load_integrals(str(path))))
    return _load_pauli_sum(cfg["hamiltonian"], base, "problem.hamiltonian")


def _build_ansatz(cfg: dict, n_qubits: int):
    _check_keys(
        cfg,
        "ansatz",
        {"kind"},
        {"order", "occupied", "reference", "trotter_slices", "relaxed"},
    )
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
    return ref, acfg


def _reference_from_cfg(cfg: dict, n_qubits: int) -> "_ansatz.ReferenceState":
    spec = cfg.get("reference")
    if spec is None:
        _fail("ansatz: this kind needs a reference")
    _check_keys(spec, "ansatz.reference", set(), {"label", "occupied"})
    if ("label" in spec) == ("occupied" in spec):
        _fail("ansatz.reference: give exactly one of label or occupied")
    if "label" in spec:
        label = _string(spec["label"], "ansatz.reference.label")
        if len(label) != n_qubits:
            _fail("ansatz.reference: label length does not match qubit count")
        if set(label) - set("01"):
            _fail(f"ansatz.reference.label: expected only 0 and 1, got {label!r}")
        return _ansatz.ReferenceState(n_qubits=n_qubits, basis_index=int(label, 2))
    return _ansatz.ReferenceState.from_occupied(
        n_qubits, _indices(spec["occupied"], "ansatz.reference.occupied")
    )


def _run_optimizer(cfg: dict, fn, x0, seed: int):
    _check_keys(
        cfg,
        "optimizer",
        set(),
        {"method", "tol", "max_evals", "restarts", "n_starts", "bounds"},
    )
    method = cfg.get("method", "nelder_mead")
    tol = _real(cfg.get("tol", 1e-9), "optimizer.tol")
    max_evals = _integer(cfg.get("max_evals", 400), "optimizer.max_evals", 1)
    restarts = _integer(cfg.get("restarts", 0), "optimizer.restarts", 0)
    if method == "nelder_mead":
        return _optimize.nelder_mead(
            fn, x0, tol=tol, max_evals=max_evals, restarts=restarts
        )
    if method == "multistart":
        if "bounds" not in cfg:
            _fail("optimizer: multistart needs bounds")
        bounds = []
        for k, pair in enumerate(_list(cfg["bounds"], "optimizer.bounds")):
            at = f"optimizer.bounds[{k}]"
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(f"{at}: expected a [lo, hi] pair, got {pair!r}")
            bounds.append((_real(pair[0], at), _real(pair[1], at)))
        return _optimize.multistart(
            fn,
            bounds,
            n_starts=_integer(cfg.get("n_starts", 8), "optimizer.n_starts", 1),
            rng=make_rng(seed),
            tol=tol,
            max_evals=max_evals,
            restarts=restarts,
        )
    _fail(f"optimizer: unknown method {method!r}")


def cmd_vqe(cfg: dict, out_override=None, seed_override=None, exact=False, base=Path(".")) -> int:
    _check_keys(
        cfg,
        "config",
        {"problem", "ansatz", "seed"},
        {"estimator", "optimizer", "output_dir", "gap"},
    )
    seed = _seed_of(cfg, seed_override)
    h = _build_problem(cfg["problem"], base)
    ref, acfg = _build_ansatz(cfg["ansatz"], h.n_qubits)

    est_cfg = cfg.get("estimator", {})
    _check_keys(
        est_cfg, "estimator", set(), {"mode", "epsilon", "truncation", "grouping"}
    )
    mode = "exact" if exact else est_cfg.get("mode", "exact")
    if mode not in ("exact", "frequentist", "bayesian"):
        _fail(f"estimator: unknown mode {mode!r}")
    epsilon = _real(est_cfg.get("epsilon", 0.01), "estimator.epsilon")
    trunc_c = _real(est_cfg.get("truncation", 0.0), "estimator.truncation")
    grouping = est_cfg.get("grouping", "auto")
    if grouping not in ("auto", "singleton"):
        _fail(f"estimator: unknown grouping {grouping!r}")
    gap = _real(cfg["gap"], "gap") if "gap" in cfg else None

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
    res = _run_optimizer(cfg.get("optimizer", {}), objective, x0, seed)

    final_state = _ansatz.prepare_state(ref, acfg, res.x)
    mean, var = expectation_and_variance(final_state, h)
    certs = {"mean": mean, "variance": var}
    lo, hi = _bounds.weinstein_interval(_bounds.BoundInputs(mean=mean, variance=var))
    certs["weinstein"] = [lo, hi]
    if gap is not None:
        b = _bounds.BoundInputs(mean=mean, variance=var, gap=gap)
        try:
            certs["ground_overlap"] = _bounds.overlap_bound(b, "ground")
        except VqekitError as exc:
            certs["ground_overlap"] = None
            certs["ground_overlap_note"] = str(exc)

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
    _write_outputs(cfg, out_override, base, files)
    print(f"final energy {res.value!r} after {res.evaluations} evaluations")
    return 0 if res.converged else 2


# ---------------------------------------------------------- adiabatic


def cmd_adiabatic(cfg: dict, out_override=None, seed_override=None, base=Path(".")) -> int:
    _check_keys(
        cfg,
        "config",
        {"initial_hamiltonian", "problem_hamiltonian", "taus", "seed"},
        {
            "a_grid",
            "family",
            "objective",
            "steps",
            "n_switches",
            "output_dir",
        },
    )
    _seed_of(cfg, seed_override)
    h_i = _load_pauli_sum(cfg["initial_hamiltonian"], base, "initial_hamiltonian")
    h_p = _load_pauli_sum(cfg["problem_hamiltonian"], base, "problem_hamiltonian")
    grid_cfg = cfg.get("a_grid", {})
    _check_keys(grid_cfg, "a_grid", set(), {"start", "stop", "points"})
    a_grid = np.linspace(
        _real(grid_cfg.get("start", 0.0), "a_grid.start"),
        _real(grid_cfg.get("stop", 1.0), "a_grid.stop"),
        _integer(grid_cfg.get("points", 1001), "a_grid.points", 1),
    )
    taus = [_real(t, f"taus[{k}]") for k, t in enumerate(_list(cfg["taus"], "taus"))]
    if not taus:
        _fail("config: taus must be nonempty")
    if min(taus) <= 0:
        _fail("config: taus must be positive")
    family = cfg.get("family", "spline")
    objective = cfg.get("objective", "energy")
    steps = cfg.get("steps")
    steps = _integer(steps, "steps", 1) if steps is not None else None
    n_switches = _integer(cfg.get("n_switches", 2), "n_switches", 0)

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
    _write_outputs(cfg, out_override, base, files)
    print("\n".join(lines))
    return 0


# ----------------------------------------------------------- estimate


def cmd_estimate(cfg: dict, out_override=None, seed_override=None, exact=False, base=Path(".")) -> int:
    _check_keys(
        cfg,
        "config",
        {"hamiltonian", "state", "seed"},
        {"epsilon", "mode", "plans", "truncation", "output_dir"},
    )
    seed = _seed_of(cfg, seed_override)
    h = _load_pauli_sum(cfg["hamiltonian"], base, "hamiltonian")
    state = _load_state(cfg["state"], "state")
    epsilon = _real(cfg.get("epsilon", 0.1), "epsilon")
    mode = cfg.get("mode", "frequentist")
    if mode not in ("frequentist", "bayesian"):
        _fail(f"config: unknown mode {mode!r}")
    trunc_c = _real(cfg.get("truncation", 0.0), "truncation")
    h_meas, k_star, eps_sampling = _sampling_budget(h, epsilon, trunc_c)

    plans_cfg = cfg.get("plans", "auto")
    plans: list[tuple[str, _estimate.MeasurementPlan]] = []
    if plans_cfg == "auto":
        cov = _estimate.exact_covariances(h_meas, state)
        plans.append(("auto", _estimate.build_groups(h_meas, cov)))
    else:
        for k, entry in enumerate(_list(plans_cfg, "plans")):
            where = f"plans[{k}]"
            _check_keys(entry, where, {"groups"}, {"name"})
            groups = _list(entry["groups"], f"{where}.groups")
            plan = _estimate.MeasurementPlan(
                groups=tuple(
                    tuple(_indices(g, f"{where}.groups[{j}]")) for j, g in enumerate(groups)
                )
            )
            name = _string(entry.get("name", f"plan-{k + 1}"), f"{where}.name")
            plans.append((name, plan))
        if not plans:
            _fail("plans: expected at least one plan")

    lines = []
    plan_text = []
    best = None
    for name, plan in plans:
        n_exp = _estimate.expected_preparations(plan, state, h_meas, eps_sampling)
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

    report_dict = None
    if not exact:
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

    files = {"plan.txt": "\n".join(plan_text) + "\n"}
    if report_dict is not None:
        files["report.json"] = _json_text(report_dict)
    _write_outputs(cfg, out_override, base, files)
    print("\n".join(lines))
    return 0


# ------------------------------------------------------------ certify


def cmd_certify(cfg: dict, out_override=None, base=Path(".")) -> int:
    _check_keys(
        cfg,
        "config",
        set(),
        {
            "mean",
            "variance",
            "hamiltonian",
            "state",
            "gap",
            "alpha",
            "output_dir",
            "seed",
        },
    )
    direct = "mean" in cfg or "variance" in cfg
    derived = "hamiltonian" in cfg or "state" in cfg
    if direct == derived:
        _fail("config: give mean/variance or hamiltonian/state, not both")
    if direct:
        if "mean" not in cfg or "variance" not in cfg:
            _fail("config: mean and variance go together")
        mean = _real(cfg["mean"], "mean")
        var = _real(cfg["variance"], "variance")
    else:
        if "hamiltonian" not in cfg or "state" not in cfg:
            _fail("config: hamiltonian and state go together")
        h = _load_pauli_sum(cfg["hamiltonian"], base, "hamiltonian")
        state = _load_state(cfg["state"], "state")
        mean, var = expectation_and_variance(state, h)

    gap = _real(cfg["gap"], "gap") if "gap" in cfg else None
    alpha = _real(cfg["alpha"], "alpha") if "alpha" in cfg else None
    b = _bounds.BoundInputs(
        mean=mean,
        variance=var,
        gap=gap if gap is not None else math.inf,
        alpha=alpha,
    )
    lo, hi = _bounds.weinstein_interval(b)
    report = {"mean": mean, "variance": var, "weinstein": [lo, hi]}
    lines = [
        f"mean {mean!r}, variance {var!r}",
        f"weinstein interval [{lo!r}, {hi!r}]",
    ]
    if gap is not None:
        try:
            g = _bounds.overlap_bound(b, "ground")
            report["ground_overlap"] = g
            lines.append(f"ground overlap >= {g!r}")
        except VqekitError as exc:
            report["ground_overlap"] = None
            report["ground_overlap_note"] = str(exc)
            lines.append(f"ground overlap bound inapplicable: {exc}")
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

    _write_outputs(cfg, out_override, base, {"certificates.json": _json_text(report)})
    print("\n".join(lines))
    return 0


# ----------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vqekit",
        description="variational and adiabatic eigensolver toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_exact in (
        ("vqe", True),
        ("adiabatic", False),
        ("estimate", True),
        ("certify", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        if needs_exact:
            p.add_argument(
                "--exact",
                action="store_true",
                help="bypass sampling (analytic expectations only)",
            )
    args = parser.parse_args(argv)

    try:
        cfg_path = Path(args.config)
        cfg = _load_json(str(cfg_path))
        base = cfg_path.resolve().parent
        if args.command == "vqe":
            return cmd_vqe(cfg, args.out, args.seed, args.exact, base)
        if args.command == "adiabatic":
            return cmd_adiabatic(cfg, args.out, args.seed, base)
        if args.command == "estimate":
            return cmd_estimate(cfg, args.out, args.seed, args.exact, base)
        return cmd_certify(cfg, args.out, base)
    except (VqekitError, OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
