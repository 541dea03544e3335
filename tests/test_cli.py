import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from ma2d import cli, ma_measure, oracle, sections, solver
from ma2d.errors import ConfigInvalid

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
SCHEMA = os.path.join(os.path.dirname(cli.__file__), "experiment.schema.json")


def read_table(path):
    """Re-parse a CSV written by the CLI's tables: (header, float rows)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    header = lines[0].split(",")
    rows = [tuple(float(t) for t in ln.split(",")) for ln in lines[1:]]
    return header, rows


def load_schema():
    with open(SCHEMA, encoding="utf-8") as fh:
        return json.load(fh)


def write_config(tmp_path, **fields):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(fields))
    return str(path)


def test_validate_alpha_out_of_range(tmp_path):
    path = write_config(tmp_path, experiment="growth", alpha=0.25)
    violations = cli.validate_config(path)
    assert any("alpha" in v and "0.25" in v for v in violations)


def test_validate_missing_seed_for_doubling(tmp_path):
    path = write_config(tmp_path, experiment="doubling", rhs="dual_translator")
    violations = cli.validate_config(path)
    assert any(v.startswith("/seed") for v in violations)


def test_validate_unknown_field(tmp_path):
    path = write_config(tmp_path, experiment="growth", bogus=1)
    assert any("bogus" in v for v in cli.validate_config(path))


def test_validate_lattice_budget(tmp_path):
    # checked on the config, so the run exits 2 before sampling anything
    path = write_config(tmp_path, experiment="verify-dual", h=1e-9, radius=1.0)
    assert any(v.startswith("/h") and "budget" in v for v in cli.validate_config(path))
    rc = cli.main(["verify-dual", "--h", "1e-9", "--radius", "1", "--outdir", str(tmp_path)])
    assert rc == 2
    # a solved-source cascade solves on the same lattice before tracing sections
    rc = cli.main(["cascade", "--source", "solve", "--h", "1e-9", "--radius", "1",
                   "--outdir", str(tmp_path)])
    assert rc == 2
    # experiments that sample no pitch-h lattice are not bound by it
    path = write_config(tmp_path, experiment="doubling", rhs="constant", seed=1, h=1e-9)
    assert cli.validate_config(path) == []


def test_shipped_configs_valid():
    for name in os.listdir(CONFIGS):
        assert cli.validate_config(os.path.join(CONFIGS, name)) == []


def test_schema_accepts_shipped_configs():
    schema = load_schema()
    for name in os.listdir(CONFIGS):
        with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
            jsonschema.validate(json.load(fh), schema)


def test_schema_accepts_growth_report_config(tmp_path):
    cfg = cli.ExperimentConfig(
        experiment="growth", alpha=0.125, source="oracle-dual",
        rmin=16.0, rmax=64.0, n_circles=5, outdir=str(tmp_path / "g"),
    )
    cli.run(cfg)
    report = json.loads((tmp_path / "g" / "report.json").read_text())
    assert report["config"]["seed"] is None
    jsonschema.validate(report["config"], load_schema())


def test_schema_matches_experiment_config():
    # every field has a schema, and every enum value of the schema a handler
    props = load_schema()["properties"]
    assert set(props) == set(cli.ExperimentConfig.__dataclass_fields__)
    assert set(props["experiment"]["enum"]) == set(cli._RUNNERS)
    cfg = cli.ExperimentConfig(experiment="growth")
    points = np.array([[1.0, 0.5], [0.3, 0.2]])
    values = {}
    for source in props["source"]["enum"]:
        with_source = dataclasses.replace(cfg, source=source)
        if source == "solve":  # solved, so no closed form
            with pytest.raises(ConfigInvalid):
                cli._source_function(with_source)
            continue
        values[source] = tuple(np.asarray(cli._source_function(with_source)(points), dtype=float))
    assert len(set(values.values())) == len(values)  # a function of its own for each source
    rhs_kinds = props["rhs"]["enum"]
    assert [cli._rhs_field(dataclasses.replace(cfg, rhs=r)).kind for r in rhs_kinds] == rhs_kinds
    assert set(cli._SOLUTIONS) == set(rhs_kinds) and set(cli._SOLUTIONS.values()) <= set(values)
    domains = props["domain"]["enum"]
    assert [cli._domain(dataclasses.replace(cfg, domain=d)).kind for d in domains] == domains


def test_each_rhs_pairs_with_its_solution():
    # det D2 v = f at two points, by centered second differences of the source
    # that _SOLUTIONS pairs with each rhs
    cfg = cli.ExperimentConfig(experiment="solve")
    e = 1e-3
    for rhs, source in cli._SOLUTIONS.items():
        v = cli._source_function(dataclasses.replace(cfg, source=source))
        f = cli._rhs_field(dataclasses.replace(cfg, rhs=rhs))
        for x in ([1.0, 0.5], [-0.7, 0.4]):
            def val(dx, dy):
                return v(np.array([[x[0] + dx, x[1] + dy]]))[0]

            vxx = (val(e, 0) - 2 * val(0, 0) + val(-e, 0)) / e**2
            vyy = (val(0, e) - 2 * val(0, 0) + val(0, -e)) / e**2
            vxy = (val(e, e) - val(e, -e) - val(-e, e) + val(-e, -e)) / (4 * e**2)
            expect = f(np.array([x]))[0]
            assert abs(vxx * vyy - vxy**2 - expect) / expect < 1e-4, (rhs, x)


# (field, keyword, bound) per numeric bound of the schema, an array's items included
SCHEMA_BOUNDS = [
    (name, key, spec[key])
    for name, prop in load_schema()["properties"].items()
    for spec in [prop.get("items", prop)]
    for key in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")
    if key in spec
]


@pytest.mark.parametrize("name,key,bound", SCHEMA_BOUNDS,
                         ids=[f"{name}-{key}" for name, key, _ in SCHEMA_BOUNDS])
def test_schema_bounds_match_validate(tmp_path, name, key, bound):
    # a value just inside each bound passes both jsonschema and validate's walk of
    # the schema, and one just outside fails both; growth samples no lattice, so
    # no budget applies
    schema = load_schema()
    step = 1 if schema["properties"][name]["type"] == "integer" else 1e-9
    inward = step if key.lower().endswith("minimum") else -step
    if key.startswith("exclusive"):
        inside, outside = bound + inward, bound
    else:
        inside, outside = bound, bound - inward
    validator = jsonschema.Draft7Validator(schema)
    for value, accepted in ((inside, True), (outside, False)):
        fields = {"experiment": "growth", name: [value, value + 1.0] if name == "levels" else value}
        if name == "rmax":
            fields["rmin"] = 1e-10  # below every rmax tried, as validate needs rmin < rmax
        assert validator.is_valid(fields) == accepted, fields
        assert (cli.validate_config(write_config(tmp_path, **fields)) == []) == accepted, fields


@pytest.mark.parametrize(
    "fields",
    [
        dict(experiment="solve", rhs="dual_translator", radius=2.0, h=0.25, tol=1e-6),
        dict(experiment="verify-dual", alpha=0.125, radius=2.0, h=0.25, tol=1e-5),
        dict(experiment="cascade", source="solve", alpha=0.125, radius=2.0, h=0.25,
             tol=1e-3, levels=[0.25, 0.5, 1.0, 2.0]),
    ],
    ids=["solve", "verify-dual", "cascade-solve"],
)
def test_work_block_counts_the_solve(tmp_path, monkeypatch, fields):
    solves, problems = [], []
    solve = solver.solve

    def recording_solve(problem, **kwargs):
        problems.append(problem)
        solves.append(solve(problem, **kwargs))
        return solves[-1]

    monkeypatch.setattr(solver, "solve", recording_solve)
    texts = []
    for _ in range(2):
        cli.run(cli.ExperimentConfig(**fields, outdir=str(tmp_path / "w")))
        texts.append((tmp_path / "w" / "report.json").read_bytes())
    assert texts[0] == texts[1]
    rep = solves[-1]
    work = rep.work
    assert json.loads(texts[0])["work"] == {
        "experiment": fields["experiment"],
        "site_updates": rep.iterations,
        "newton_steps": work.newton_steps,
        "mass_passes": work.mass_passes,
        "hull_builds": work.hull_builds,
        "hull_sites": work.hull_sites,
        "backtracks": work.backtracks,
        "edge_flips": work.edge_flips,
        "start_boundary_sites": work.start_boundary_sites,
        "coarse_builds": work.coarse_builds,
        "residuals": work.residuals,
        "step_lengths": work.step_lengths,
        "cg_iterations": work.cg_iterations,
        "verifier_residual": solver.residual(rep.function, problems[-1]),
    }
    assert len(work.residuals) == work.newton_steps + 1
    assert len(work.step_lengths) == work.newton_steps
    assert len(work.cg_iterations) == work.newton_steps
    assert all(0.0 < step <= 1.0 for step in work.step_lengths)
    assert work.residuals[-1] == rep.max_residual
    assert work.mass_passes >= work.newton_steps + 1 >= 2
    assert work.mass_passes <= work.newton_steps + 1 + work.backtracks
    assert 1 <= work.hull_builds <= work.mass_passes + 1
    # the start pass hands Qhull its band only, and no hull is built for the
    # envelope, so the hulls hold fewer sites than one per pass would
    n = len(rep.grid.nodes)
    assert work.hull_builds * n > work.hull_sites > 0
    # the verifier confirms the solve: within a factor of 2 of the solver's
    # residual, or both below the rounding floor
    verified = json.loads(texts[0])["work"]["verifier_residual"]
    assert verified <= 2.0 * rep.max_residual + 1e-12
    assert rep.max_residual <= 2.0 * verified + 1e-12


def test_run_growth_report_deterministic(tmp_path):
    out = tmp_path / "a"
    cfg = cli.ExperimentConfig(
        experiment="growth", alpha=0.125, source="oracle-dual",
        rmin=16.0, rmax=64.0, n_circles=5, outdir=str(out),
    )
    assert cli.run(cfg)["pass"]
    first = (out / "report.json").read_bytes()
    assert cli.run(cfg)["pass"]
    second = (out / "report.json").read_bytes()
    assert first == second
    assert (out / "growth.csv").exists() and (out / "growth.dat").exists()


def test_run_doubling_constant_pass(tmp_path):
    cfg = cli.ExperimentConfig(
        experiment="doubling", rhs="constant", radius=5.0, n_samples=150,
        seed=3, outdir=str(tmp_path / "d"),
    )
    rep = cli.run(cfg)
    assert rep["pass"]
    assert rep["outputs"]["estimate"] == 4.0


def test_csv_round_trip(tmp_path):
    cfg = cli.ExperimentConfig(
        experiment="growth", alpha=0.125, source="oracle-dual",
        rmin=16.0, rmax=64.0, n_circles=5, outdir=str(tmp_path / "g"),
    )
    cli.run(cfg)
    header, rows = read_table(str(tmp_path / "g" / "growth.csv"))
    assert header == ["r", "min_value", "max_value"]
    assert len(rows) == 5
    assert rows[0][0] == 16.0


def test_main_exit_codes(tmp_path):
    # pass -> 0
    rc = cli.main([
        "growth", "--alpha", "0.125", "--source", "oracle-dual",
        "--rmin", "16", "--rmax", "64", "--outdir", str(tmp_path / "ok"),
    ])
    assert rc == 0
    # config error -> 2
    bad = write_config(tmp_path, experiment="growth", alpha=0.9)
    rc = cli.main(["growth", "--config", bad, "--outdir", str(tmp_path / "bad")])
    assert rc == 2
    # validate subcommand
    assert cli.main(["validate", bad]) == 2
    good = write_config(tmp_path, experiment="growth", alpha=0.125, rmax=64.0)
    assert cli.main(["validate", good]) == 0


@pytest.mark.parametrize(
    "fields, path",
    [
        ({"experiment": "growth", "alpha": "0.1"}, "/alpha"),
        ({"experiment": "growth", "alpha": True}, "/alpha"),
        ({"experiment": "cascade", "levels": "abc"}, "/levels"),
        ({"experiment": "cascade", "levels": [1.0, "2", 4.0]}, "/levels/1"),
        ({"experiment": "growth", "n_circles": 4.5}, "/n_circles"),
        ({"experiment": "doubling", "rhs": "constant", "seed": 1.5}, "/seed"),
        ({"experiment": 3}, "/experiment"),
    ],
)
def test_config_wrong_json_type_exit_2(tmp_path, capsys, fields, path):
    cfg = write_config(tmp_path, **fields)
    assert cli.main(["validate", cfg]) == 2
    out = capsys.readouterr().out
    assert out.startswith(path + ":") and "Traceback" not in out
    command = fields["experiment"] if isinstance(fields["experiment"], str) else "growth"
    assert cli.main([command, "--config", cfg, "--outdir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(path + ":") and "Traceback" not in err


@pytest.mark.parametrize(
    "experiment, name, value, path",
    [
        ("verify-dual", "radius", math.inf, "/radius"),
        ("solve", "h", math.inf, "/h"),
        ("growth", "rmax", math.inf, "/rmax"),
        ("cascade", "levels", [1.0, math.inf], "/levels/1"),
        ("growth", "alpha", math.nan, "/alpha"),
    ],
    ids=["radius", "h", "rmax", "levels", "alpha"],
)
def test_nonfinite_number_exit_2(tmp_path, capsys, experiment, name, value, path):
    # JSON has no NaN or Infinity, yet Python's json reads them and float() reads
    # "inf" and "nan", so a file and a flag can each carry one
    cfg = write_config(tmp_path, experiment=experiment, **{name: value})
    assert cli.main(["validate", cfg]) == 2
    out = capsys.readouterr().out
    assert out.startswith(path + ":") and "Traceback" not in out
    flag = [repr(v) for v in (value if isinstance(value, list) else [value])]
    for argv in (["--config", cfg], ["--" + name, *flag]):
        assert cli.main([experiment, *argv, "--outdir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(path + ":") and "Traceback" not in err


def test_python_m_cli_writes_no_warning():
    # runpy warns when the package has imported the module it is asked to run
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "ma2d.cli", "validate", os.path.join(CONFIGS, "verify_dual.json")]
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (out.returncode, out.stderr) == (0, "")


def test_n_circles_bounded(tmp_path):
    # checked on the config, so the run exits 2 before allocating any circle
    path = write_config(tmp_path, experiment="growth", n_circles=10**9)
    assert any(v.startswith("/n_circles") for v in cli.validate_config(path))
    assert cli.main(["growth", "--n-circles", str(10**9), "--outdir", str(tmp_path)]) == 2
    most = load_schema()["properties"]["n_circles"]["maximum"]
    path = write_config(tmp_path, experiment="growth", n_circles=most)
    assert cli.validate_config(path) == []


def test_every_config_field_has_a_flag(tmp_path):
    parser = argparse.ArgumentParser()
    cli._add_common(parser)
    fields = set(cli.ExperimentConfig.__dataclass_fields__) - {"experiment"}
    assert set(vars(parser.parse_args([]))) == fields | {"config"}
    args = parser.parse_args(["--n-circles", "7", "--levels", "1", "2", "--seed", "3"])
    assert (args.n_circles, args.levels, args.seed) == (7, [1.0, 2.0], 3)
    out = tmp_path / "o"
    assert cli.main(["oracle", "--identity-tolerance", "0.5", "--outdir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["identity_tolerance"] == 0.5


@pytest.mark.parametrize("argv", [
    "growth --rmax 5000", "oracle --rmax 5000", "sections --source oracle-dual --levels 1e20 2e20",
])
def test_beyond_the_oracle_table_exits_3(tmp_path, capsys, argv):
    assert cli.main(argv.split() + ["--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("DomainTooSmall:") and "Traceback" not in err


def test_growth_overflow_exits_3(tmp_path, capsys):
    # 0.5 r^2 overflows at r = 1e200; the fit must not turn it into a NaN slope
    argv = ["growth", "--source", "quadratic", "--rmax", "1e200", "--outdir", str(tmp_path)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("NonfiniteValue:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verdict_failure_exit_code(tmp_path):
    path = write_config(
        tmp_path, experiment="growth", alpha=0.125, source="oracle-dual",
        rmin=16.0, rmax=64.0, slope_tolerance=1e-9, outdir=str(tmp_path / "v"),
    )
    rc = cli.main(["growth", "--config", path])
    assert rc == 1


def test_every_verdict_cites_tolerance(tmp_path):
    cfg = cli.ExperimentConfig(
        experiment="growth", alpha=0.125, source="oracle-dual",
        rmin=16.0, rmax=64.0, outdir=str(tmp_path / "t"),
    )
    rep = cli.run(cfg)
    for v in rep["verdicts"]:
        assert {"name", "measured", "expected", "tolerance", "pass"} <= set(v)


def test_run_sections_quadratic(tmp_path):
    cfg = cli.ExperimentConfig(
        experiment="sections", source="quadratic", levels=[1.0, 2.0, 4.0, 8.0],
        outdir=str(tmp_path / "s"),
    )
    rep = cli.run(cfg)
    assert rep["pass"]
    header, rows = read_table(str(tmp_path / "s" / "sections.csv"))
    assert header == ["t", "area", "mass", "r", "ecc", "k0", "A11", "A12", "A21", "A22"]
    k0 = [r[5] for r in rows]
    assert max(k0) / min(k0) < 1.001


def test_run_sections_oracle_primal_default_levels(tmp_path):
    # the primal's sections weigh its own density, which depends on its gradient
    out = tmp_path / "sp"
    assert cli.main(["sections", "--source", "oracle-primal", "--outdir", str(out)]) == 0
    _, rows = read_table(str(out / "sections.csv"))
    assert len(rows) == 8
    prof = oracle.RadialProfile(alpha=0.125, kind="primal_translator")
    t, mass = rows[0][0], rows[0][2]
    sec = sections.extract_section(prof, np.zeros(2), np.zeros(2), t)
    assert mass == sec.mass(prof.rhs)


def test_run_cascade_separable(tmp_path):
    cfg = cli.ExperimentConfig(
        experiment="cascade", source="separable", alpha=0.125,
        levels=[float(2**k) for k in range(8)], outdir=str(tmp_path / "c"),
    )
    rep = cli.run(cfg)
    assert rep["pass"]


def test_run_verify_dual_small(tmp_path, monkeypatch):
    cfg = cli.ExperimentConfig(
        experiment="verify-dual", alpha=0.125, radius=2.0, h=0.25, tol=1e-5,
        outdir=str(tmp_path / "vd"),
    )
    # the verifier's residual and the dual identity share one build of the cells
    cell_arrays, built, solves = ma_measure._cell_arrays, [], []
    solve = solver.solve
    monkeypatch.setattr(ma_measure, "_cell_arrays",
                        lambda f: built.append(f) or cell_arrays(f))
    monkeypatch.setattr(solver, "solve", lambda *a, **k: solves.append(solve(*a, **k)) or solves[-1])
    rep = cli.run(cfg)
    assert len(built) == 1 and built[0] is solves[0].function
    assert rep["pass"]
    assert (tmp_path / "vd" / "solution.gfn").exists()
    header, rows = read_table(str(tmp_path / "vd" / "dual_identity.csv"))
    assert header == ["r_lo", "r_hi", "weighted_mass", "area", "deviation"]
    assert all(r[4] < 0.05 for r in rows)
    # the rows of a separate build, on a copy that holds no cells, bit for bit
    ref = ma_measure.dual_identity(dataclasses.replace(solves[0].function), 0.125, 2.0, 0.25)
    assert len(built) == 2 and built[1] is not built[0]
    assert rows == ref


def test_run_verify_translator_small(tmp_path, monkeypatch):
    cfg = cli.ExperimentConfig(
        experiment="verify-translator", alpha=0.125, radius=0.8, h=0.05,
        outdir=str(tmp_path / "vt"),
    )
    # the translator identity and the Gauss mass share one build of the cells
    cell_arrays, built = ma_measure._cell_arrays, []
    monkeypatch.setattr(ma_measure, "_cell_arrays",
                        lambda f: built.append(f) or cell_arrays(f))
    rep = cli.run(cfg)
    assert len(built) == 1
    assert rep["pass"]


def test_run_sections_solved_source(tmp_path):
    cfg = cli.ExperimentConfig(
        experiment="sections", source="solve", alpha=0.125, radius=2.0, h=0.25,
        tol=1e-3, levels=[0.25, 0.5, 1.0, 2.0], outdir=str(tmp_path / "ss"),
    )
    rep = cli.run(cfg)
    assert rep["pass"]


def test_run_oracle_profile(tmp_path):
    cfg = cli.ExperimentConfig(
        experiment="oracle", source="oracle-dual", alpha=0.125,
        rmin=16.0, rmax=64.0, outdir=str(tmp_path / "o"),
    )
    rep = cli.run(cfg)
    header, rows = read_table(str(tmp_path / "o" / "profile.csv"))
    assert header == ["r", "slope", "value"]
    assert len(rows) == 64
