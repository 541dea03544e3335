"""Experiment driver: JSON configs, subcommands, machine-readable reports.

Every experiment writes ``report.json`` plus CSV and gnuplot-ready ``.dat``
tables to the output directory.  Reports are byte-identical across runs with
the same config and seed; the "work" block names the experiment and carries
deterministic counters, never wall-clock times: an experiment that solves
(``solve``, ``verify-dual``, and ``sections`` or ``cascade`` with source
``solve``) records the solve's ``site_updates``, every field of its
``solver.SolveWork`` (the counters and the per-step lists), and the
``verifier_residual`` that ``solver.residual`` reads on the solved
envelope.  Exit codes: 0 all verdicts pass, 1 verdict failure, 2 config
error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import operator
import os
import sys
import tempfile
import typing
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import analysis, ma_measure, oracle, sections, solver
from .errors import ConfigInvalid, LatticeTooLarge, ToolkitError
from .grid import Domain2D, RhsField, check_lattice_budget, sample, save

with open(os.path.join(os.path.dirname(__file__), "experiment.schema.json"),
          encoding="utf-8") as _fh:
    SCHEMA = json.load(_fh)  # the one statement of each field's type, enum and bounds

EXPERIMENTS = tuple(SCHEMA["properties"]["experiment"]["enum"])


@dataclass
class ExperimentConfig:
    experiment: str
    alpha: float = 0.125
    eta: float = 1.0
    rhs: str = "constant"
    source: str = "oracle-dual"
    domain: str = "disk"
    radius: float = 8.0
    h: float = 0.125
    rmin: float = 16.0
    rmax: float = 256.0
    n_circles: int = 5
    levels: list[float] = field(default_factory=lambda: [float(2**k) for k in range(8)])
    n_samples: int = 1000
    seed: int | None = None
    tol: float = 1e-8
    slope_tolerance: float = 0.02
    error_tolerance: float = 0.02
    identity_tolerance: float = 0.05
    outdir: str = "out"

    def validate(self) -> list:
        """Violations, each led by its field's JSON pointer; empty iff valid."""
        return _violations(asdict(self))


# JSON type: description, membership test.  bool is no number, an integer
# takes no float (not even 5.0), and a number is finite, as JSON has no NaN
# or Infinity (Python's json reads them) and no double beyond float max.
_TYPES = {
    "object": ("an object", lambda v: isinstance(v, dict)),
    "array": ("an array", lambda v: isinstance(v, list)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "number": ("a finite number", lambda v: isinstance(v, (int, float))
               and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
    "null": ("null", lambda v: v is None),
}

_BOUNDS = {
    "minimum": (">=", operator.ge),
    "maximum": ("<=", operator.le),
    "exclusiveMinimum": (">", operator.gt),
    "exclusiveMaximum": ("<", operator.lt),
}


def _walk(value, schema, path, typed, bad):
    """Append the violations of ``value`` against ``schema`` (``SCHEMA`` or
    one of its subschemas) to ``typed`` (a wrong type, an unknown or a
    missing property) and to ``bad`` (the rest).

    Only the keywords that ``SCHEMA`` uses are read.
    """
    kinds = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    if not any(_TYPES[k][1](value) for k in kinds):
        typed.append(f"{path or '/'}: must be {' or '.join(_TYPES[k][0] for k in kinds)}")
        return
    if "enum" in schema and value not in schema["enum"]:
        bad.append(f"{path}: must be one of {', '.join(schema['enum'])}")
    for key, (sign, holds) in _BOUNDS.items():
        if key in schema and not holds(value, schema[key]):
            bad.append(f"{path}: must be {sign} {schema[key]}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            bad.append(f"{path}: need at least {schema['minItems']} items")
        for i, item in enumerate(value):
            _walk(item, schema["items"], f"{path}/{i}", typed, bad)
    if isinstance(value, dict):
        props = schema["properties"]
        if schema.get("additionalProperties") is False:
            typed += [f"{path}/{k}: unknown field" for k in sorted(value) if k not in props]
        typed += [f"{path}/{k}: required" for k in schema.get("required", ()) if k not in value]
        for k, v in value.items():
            if k in props:
                _walk(v, props[k], f"{path}/{k}", typed, bad)


def _violations(values) -> list:
    """Violations of ``values``, a config's JSON object whose fields may be
    missing: those of ``SCHEMA``, then those of the rules that tie fields
    together.  Type violations come alone, as they end the check."""
    typed, bad = [], []
    _walk(values, SCHEMA, "", typed, bad)
    if typed:
        return typed
    cfg = ExperimentConfig(**values)
    samples_lattice = (  # the pitch-h lattice of the domain
        cfg.experiment in ("solve", "verify-dual", "verify-translator")
        or (cfg.experiment in ("sections", "cascade") and cfg.source == "solve")
    )
    if samples_lattice and not any(v.startswith(("/radius:", "/h:")) for v in bad):
        try:
            check_lattice_budget(_domain(cfg), cfg.h)
        except LatticeTooLarge as exc:
            bad.append(f"/h: {exc}")
    if not cfg.rmin < cfg.rmax:
        bad.append("/rmin: need rmin < rmax")
    if any(b <= a for a, b in zip(cfg.levels, cfg.levels[1:])):
        bad.append("/levels: must be increasing")
    if cfg.experiment == "doubling" and cfg.seed is None:
        bad.append("/seed: required for the doubling experiment")
    return bad


def load_config(path, overrides=None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid([f"/: invalid JSON ({exc})"])
    if isinstance(values, dict) and overrides:
        values.update((k, v) for k, v in overrides.items() if v is not None)
    bad = _violations(values)
    if bad:
        raise ConfigInvalid(bad)
    return ExperimentConfig(**values)


def validate_config(path) -> list:
    """List of config violations (empty iff ``load_config`` accepts the file)."""
    try:
        load_config(path)
    except ConfigInvalid as exc:
        return list(exc.violations)
    return []


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------

def _verdict(name, measured, expected, tolerance, passed):
    return {
        "name": name,
        "measured": float(measured),
        "expected": float(expected),
        "tolerance": float(tolerance),
        "pass": bool(passed),
    }


# rhs -> the source that solves det D2 v = rhs in closed form
_SOLUTIONS = {"constant": "quadratic", "dual_translator": "oracle-dual", "degenerate": "separable"}


def _source_function(cfg: ExperimentConfig):
    if cfg.source == "oracle-dual":
        return oracle.RadialProfile(alpha=cfg.alpha, kind="dual_translator", eta=cfg.eta)
    if cfg.source == "oracle-primal":
        return oracle.RadialProfile(alpha=cfg.alpha, kind="primal_translator")
    if cfg.source == "separable":
        return oracle.SeparableSolution(alpha=cfg.alpha, a=1.0)
    if cfg.source == "quadratic":
        return lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2)
    raise ConfigInvalid(["/source: 'solve' source is only valid for cascade/sections"])


def _rhs_field(cfg: ExperimentConfig) -> RhsField:
    if cfg.rhs == "constant":
        return RhsField("constant")
    if cfg.rhs == "dual_translator":
        return RhsField("dual_translator", alpha=cfg.alpha, eta=cfg.eta)
    return RhsField("degenerate", alpha=cfg.alpha)


def _domain(cfg: ExperimentConfig) -> Domain2D:
    if cfg.domain == "disk":
        return Domain2D.disk(cfg.radius)
    return Domain2D.square(cfg.radius)


def _count_solve(work: dict, report: solver.SolveReport, problem) -> None:
    """Record the solve's work in ``work``, with the residual that the
    independent ``ma_measure`` verifier reads on its envelope."""
    work.update(asdict(report.work), site_updates=report.iterations,
                verifier_residual=solver.residual(report.function, problem))


def _run_oracle(cfg, out, work):
    prof = _source_function(cfg)
    if not isinstance(prof, oracle.RadialProfile):
        raise ConfigInvalid(["/source: oracle experiment needs oracle-dual or oracle-primal"])
    radii = np.geomspace(max(cfg.rmin, 1e-3) / 16.0, cfg.rmax, 64)
    rows = [(float(r), float(prof.slope(r)), float(prof.value(r)[0])) for r in radii]
    _write_table(out, "profile", ["r", "slope", "value"], rows)
    return {"radii": [r[0] for r in rows]}, []


def _run_growth(cfg, out, work):
    fn = _source_function(cfg)
    theory = (
        1.0 / (2.0 * cfg.alpha)
        if cfg.source == "oracle-dual"
        else 1.0 / (1.0 - 2.0 * cfg.alpha)
        if cfg.source == "oracle-primal"
        else 2.0
    )
    fit = analysis.growth_exponent(
        fn, cfg.rmin, cfg.rmax, cfg.n_circles, slope_theory=theory
    )
    rows = list(
        zip(fit.radii.tolist(), fit.min_values.tolist(), fit.max_values.tolist())
    )
    _write_table(out, "growth", ["r", "min_value", "max_value"], rows)
    rel = abs(fit.slope - theory) / theory
    verdicts = [_verdict("slope_matches_theory", fit.slope, theory, cfg.slope_tolerance,
                         rel <= cfg.slope_tolerance)]
    outputs = {
        "slope": fit.slope,
        "slope_theory": theory,
        "ratio_proxy": fit.ratio_proxy,
        "levels": fit.radii.tolist(),
    }
    return outputs, verdicts


def _run_solve(cfg, out, work):
    dom = _domain(cfg)
    rhs = _rhs_field(cfg)
    exact = _source_function(replace(cfg, source=_SOLUTIONS[cfg.rhs]))
    problem = solver.build_problem(dom, cfg.h, rhs, exact)
    report = solver.solve(problem, tol=cfg.tol)
    _count_solve(work, report, problem)
    check = work["verifier_residual"]
    save(report.grid, os.path.join(out, "solution.gfn"))
    ex = np.asarray(exact(problem.grid.nodes), dtype=float)
    sup_err = float(np.max(np.abs(report.grid.values - ex)) / max(np.abs(ex).max(), 1e-30))
    verdicts = [
        _verdict("mass_residual", check, 0.0, cfg.tol, check <= cfg.tol),
        _verdict("nodal_relative_error", sup_err, 0.0, cfg.error_tolerance,
                 sup_err <= cfg.error_tolerance),
    ]
    outputs = {
        "iterations": report.iterations,
        "max_residual": report.max_residual,
        "h": cfg.h,
        "alpha": cfg.alpha if cfg.rhs != "constant" else None,
        "nodal_relative_error": sup_err,
    }
    return outputs, verdicts


def _solve_dual(cfg, work, tol_floor):
    """Solve the dual translator's Dirichlet problem on the disk of radius
    cfg.radius to the tolerance max(cfg.tol, tol_floor), and record its work:
    (profile, problem, report)."""
    prof = oracle.RadialProfile(alpha=cfg.alpha, kind="dual_translator", eta=cfg.eta)
    rhs = RhsField("dual_translator", alpha=cfg.alpha, eta=cfg.eta)
    problem = solver.build_problem(Domain2D.disk(cfg.radius), cfg.h, rhs, prof)
    report = solver.solve(problem, tol=max(cfg.tol, tol_floor))
    _count_solve(work, report, problem)
    return prof, problem, report


def _run_sections(cfg, out, work):
    if cfg.source == "solve":
        _, problem, report = _solve_dual(cfg, work, 1e-3)
        v, density = report.grid, problem.rhs
        x0 = v.nodes[v.argmin_node()]
    else:
        v = _source_function(cfg)
        if isinstance(v, oracle.RadialProfile):
            density = v.rhs  # the primal's density depends on its gradient: no RhsField has it
        else:
            rhs = next(r for r, s in _SOLUTIONS.items() if s == cfg.source)
            density = _rhs_field(replace(cfg, rhs=rhs))
        x0 = np.zeros(2)
    rows = []
    for t in cfg.levels:
        sec, fit = sections.section_balance(v, density, x0, np.zeros(2), float(t))
        A = fit.normalized
        rows.append(
            (
                float(t),
                sec.area,
                sec.mass(density),
                fit.r,
                sections.eccentricity(fit),
                fit.k0,
                A[0, 0],
                A[0, 1],
                A[1, 0],
                A[1, 1],
            )
        )
    _write_table(
        out,
        "sections",
        ["t", "area", "mass", "r", "ecc", "k0", "A11", "A12", "A21", "A22"],
        rows,
    )
    k0s = [r[5] for r in rows]
    spread = max(k0s) / min(k0s)
    verdicts = [_verdict("k0_spread_below_3", spread, 1.0, 3.0, spread < 3.0)]
    return {"levels": list(map(float, cfg.levels)), "k0": k0s}, verdicts


def _run_cascade(cfg, out, work):
    if cfg.source == "solve":
        _, _, report = _solve_dual(cfg, work, 1e-3)
        v = report.grid
        x0 = v.nodes[v.argmin_node()]
    else:
        v = _source_function(cfg)
        x0 = np.zeros(2)
    series = analysis.eccentricity_cascade(v, x0, np.zeros(2), cfg.levels)
    rows = list(zip(series.levels.tolist(), series.norms.tolist()))
    _write_table(out, "cascade", ["t", "ecc"], rows)
    verdicts = []
    if cfg.source == "separable":
        theory = oracle.SeparableSolution(alpha=cfg.alpha, a=1.0).eccentricity_slope()
        rel = abs(series.slope - theory) / theory
        verdicts.append(
            _verdict("cascade_slope", series.slope, theory, 0.05, rel <= 0.05)
        )
    elif cfg.source == "oracle-dual":
        verdicts.append(
            _verdict("cascade_slope_flat", series.slope, 0.0, 0.02,
                     abs(series.slope) <= 0.02)
        )
    outputs = {"levels": series.levels.tolist(), "ecc": series.norms.tolist(),
               "slope": series.slope}
    return outputs, verdicts


def _run_doubling(cfg, out, work):
    f = _rhs_field(cfg)
    region = Domain2D.disk(cfg.radius)
    est = sections.doubling_constant(f, region, cfg.n_samples, rng_seed=cfg.seed)
    rows = [(cfg.n_samples, est)]
    _write_table(out, "doubling", ["n_samples", "estimate"], rows)
    verdicts = []
    if cfg.rhs == "constant":
        verdicts.append(_verdict("constant_doubling_is_4", est, 4.0, 1e-6,
                                 abs(est - 4.0) <= 1e-6))
    else:
        verdicts.append(_verdict("doubling_finite", est, 0.0, np.inf, np.isfinite(est)))
    return {"estimate": est, "seed": cfg.seed}, verdicts


def _run_verify_dual(cfg, out, work):
    prof, problem, report = _solve_dual(cfg, work, 1e-6)
    save(report.grid, os.path.join(out, "solution.gfn"))
    ex = prof(problem.grid.nodes)
    sup_err = float(np.max(np.abs(report.grid.values - ex)) / np.abs(ex).max())

    id_rows = ma_measure.dual_identity(report.function, cfg.alpha, cfg.radius, cfg.h)
    worst = max(row[-1] for row in id_rows)
    _write_table(
        out, "dual_identity", ["r_lo", "r_hi", "weighted_mass", "area", "deviation"], id_rows
    )
    verdicts = [
        _verdict("nodal_relative_error", sup_err, 0.0, cfg.error_tolerance,
                 sup_err <= cfg.error_tolerance),
        _verdict("dual_identity", worst, 0.0, cfg.identity_tolerance,
                 worst <= cfg.identity_tolerance),
    ]
    outputs = {
        "iterations": report.iterations,
        "max_residual": report.max_residual,
        "nodal_relative_error": sup_err,
        "identity_deviation": worst,
    }
    return outputs, verdicts


def _run_verify_translator(cfg, out, work):
    prof = oracle.RadialProfile(alpha=cfg.alpha, kind="primal_translator")
    dom = Domain2D.disk(cfg.radius)
    gf = sample(prof, dom, cfg.h)
    pl = ma_measure.lower_envelope(gf.nodes, gf.values)
    radii = np.hypot(gf.nodes[:, 0], gf.nodes[:, 1])
    lo, hi = 0.3 * cfg.radius, 0.7 * cfg.radius
    subset = np.flatnonzero((radii >= lo) & (radii <= hi) & pl.hull_interior)
    rep = ma_measure.check_translator_identity(pl, cfg.alpha, subset)
    gauss_total = ma_measure.gauss_map_mass(pl.cells)
    rows = [(lo, hi, rep.measure_side, rep.integral_side, rep.relative_residual)]
    _write_table(
        out,
        "translator_identity",
        ["r_lo", "r_hi", "measure_side", "integral_side", "relative_residual"],
        rows,
    )
    verdicts = [
        _verdict("translator_identity", rep.relative_residual, 0.0, 0.03,
                 rep.relative_residual <= 0.03),
        _verdict("gauss_mass_hemisphere_bound", gauss_total, 2 * np.pi, 2 * np.pi,
                 gauss_total <= 2 * np.pi),
    ]
    outputs = {
        "relative_residual": rep.relative_residual,
        "gauss_mass": gauss_total,
    }
    return outputs, verdicts


_RUNNERS = {
    "oracle": _run_oracle,
    "growth": _run_growth,
    "solve": _run_solve,
    "sections": _run_sections,
    "cascade": _run_cascade,
    "doubling": _run_doubling,
    "verify-dual": _run_verify_dual,
    "verify-translator": _run_verify_translator,
}


def run(cfg: ExperimentConfig) -> dict:
    """Run the experiment of ``cfg``, which ``validate`` passes; returns the
    report dict after writing all files."""
    os.makedirs(cfg.outdir, exist_ok=True)
    work = {"experiment": cfg.experiment}
    outputs, verdicts = _RUNNERS[cfg.experiment](cfg, cfg.outdir, work)
    report = {
        "config": asdict(cfg),
        "outputs": outputs,
        "verdicts": verdicts,
        "pass": all(v["pass"] for v in verdicts),
        "work": work,
    }
    _atomic_write(
        os.path.join(cfg.outdir, "report.json"),
        json.dumps(report, sort_keys=True, indent=2) + "\n",
    )
    return report


def _write_table(outdir, name, header, rows):
    """One CSV plus a gnuplot .dat with identical numbers."""
    csv_lines = [",".join(header)]
    dat_lines = ["# " + " ".join(header)]
    for row in rows:
        csv_lines.append(",".join(repr(float(x)) for x in row))
        dat_lines.append(" ".join(repr(float(x)) for x in row))
    _atomic_write(os.path.join(outdir, f"{name}.csv"), "\n".join(csv_lines) + "\n")
    _atomic_write(os.path.join(outdir, f"{name}.dat"), "\n".join(dat_lines) + "\n")


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _add_common(p):
    """``--config`` and one flag per config field but ``experiment``:
    ``--n-circles`` sets ``n_circles``, and a list field takes one or more
    values."""
    p.add_argument("--config", default=None, help="JSON config file; flags override")
    for name, hint in typing.get_type_hints(ExperimentConfig).items():
        if name == "experiment":
            continue
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        kind = args[0] if args else hint  # X | None and list[X] take X
        nargs = "+" if typing.get_origin(hint) is list else None
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, nargs=nargs,
                       default=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ma2d", description="Monge-Ampere section-geometry experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        _add_common(sub.add_parser(name))
    vp = sub.add_parser("validate")
    vp.add_argument("config_path")
    args = parser.parse_args(argv)

    if args.command == "validate":
        violations = validate_config(args.config_path)
        for v in violations:
            print(v)
        return 0 if not violations else 2

    overrides = {
        k: getattr(args, k)
        for k in ExperimentConfig.__dataclass_fields__
        if getattr(args, k, None) is not None
    }
    try:
        if args.config:
            cfg = load_config(args.config, overrides)
            if cfg.experiment != args.command:
                raise ConfigInvalid(
                    [f"/experiment: config says {cfg.experiment!r}, command is {args.command!r}"]
                )
        else:
            cfg = ExperimentConfig(experiment=args.command, **overrides)
            bad = cfg.validate()
            if bad:
                raise ConfigInvalid(bad)
        report = run(cfg)
    except ConfigInvalid as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for v in report["verdicts"]:
        status = "pass" if v["pass"] else "FAIL"
        print(
            f"[{status}] {v['name']}: measured {v['measured']:.6g} "
            f"expected {v['expected']:.6g} tolerance {v['tolerance']:.3g}"
        )
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
