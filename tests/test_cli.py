import json
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from heisenpde.cli import main
from heisenpde.grid import Grid3, GridFunction
from heisenpde.pipeline import ARTIFACTS, TIMINGS, PipelineConfig, holder_config, run_pipeline
from heisenpde.solver import ProblemSpec, _Multilevel

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

INF, NAN = float("inf"), float("nan")

SOLVE_CONFIG = {
    "operator": {"kind": "sublaplacian", "lambda": 1.0, "Lambda": 1.0},
    "c": {"poly": "1"},
    "f": {"poly": "4 - x1^2 - x2^2 - x1^2 x2^2"},
    "boundary": {"poly": "x1^2 + x2^2"},
    "grid": {"lower": [-1, -1, -1], "upper": [1, 1, 1], "counts": [9, 9, 9]},
    "tol": 1e-7,
}

PIPELINE_CONFIG = {
    "problem": {
        "operator": {"kind": "sublaplacian", "lambda": 1.0, "Lambda": 1.0},
        "c": {"poly": "1"},
        "f": {"builtin": "smooth_abs", "eps": 0.1, "scale": 1.0, "offset": -1.0},
        "boundary": {"poly": "0"},
        "grid": {"lower": [-1, -1, -1], "upper": [1, 1, 1], "counts": [17, 17, 17]},
        "tol": 1e-6,
    },
    "holder": {"c0": 1.0, "beta": 1.0, "beta_prime": 1.0, "L_c": 0.0, "L_f": 1.0},
    "bracket": {"lambda": 1.0, "Lambda": 1.0},
    "seed": 7,
    "pairs": 60000,
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_verify_full_suite_default_seed(tmp_path):
    out = tmp_path / "full.json"
    assert main(["verify", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_pass"]
    assert len(report["checks"]) >= 20
    for rec in report["checks"]:
        assert set(rec) >= {"lemma_id", "trials", "worst_gap", "pass"}


def test_verify_filter_and_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--filter", "group", "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_pass"]
    assert {c["lemma_id"] for c in report["checks"]} == {
        "group.algebra",
        "group.sqrtp_square",
        "group.p_kernel",
        "group.sigma_factorization",
    }
    assert main(["verify", "--filter", "zzz"]) == 1


def test_solve_roundtrip(tmp_path):
    cfg = write_json(tmp_path / "prob.json", SOLVE_CONFIG)
    out = tmp_path / "u.csv"
    code = main(["solve", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert out.exists()
    diag = json.loads((tmp_path / "u.csv.diag.json").read_text())
    assert diag["converged"]
    assert set(diag) >= {"iterations", "residual", "tau"}
    assert diag["residual"] < 1e-7
    assert diag["levels"] == [[9, 9, 9], [5, 5, 5]]
    assert diag["rho_over_h"] == diag["rho"] / 0.25 == 1.0
    assert len(diag["cycle_residuals"]) == diag["cycles"]
    assert diag["cycle_residuals"][-1] == diag["residual"]
    assert 0 < diag["outside_fraction"] < 1


def test_solve_nonconvergence_exit_2(tmp_path, monkeypatch):
    monkeypatch.setattr(_Multilevel, "MAX_CYCLES", 1)
    bad = dict(SOLVE_CONFIG, tol=1e-14)
    cfg = write_json(tmp_path / "prob.json", bad)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "u.csv")])
    assert code == 2


def test_solve_missing_field_exit_1(tmp_path, capsys):
    cfg_dict = {k: v for k, v in SOLVE_CONFIG.items() if k != "boundary"}
    cfg = write_json(tmp_path / "prob.json", cfg_dict)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "u.csv")])
    assert code == 1
    assert "boundary" in capsys.readouterr().err


def test_main_releases_the_freed_heap_after_every_command(tmp_path, monkeypatch):
    from heisenpde import cli

    trims = []

    class Libc:
        def malloc_trim(self, pad):
            trims.append(pad)

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
    cfg = write_json(tmp_path / "prob.json", SOLVE_CONFIG)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "u.csv")]) == 0
    assert main(["solve", "--config", str(tmp_path / "missing.json"), "--out", "u.csv"]) == 1
    assert trims == [0, 0]
    # a C library without malloc_trim leaves the exit codes alone
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 0
    assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "v.csv").read_bytes()


def test_solve_unknown_key_exit_1(tmp_path, capsys):
    cfg = write_json(tmp_path / "prob.json", dict(SOLVE_CONFIG, bogus=1))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "u.csv")]) == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override,words",
    [
        ({"grid": 5}, ("grid config", "object")),
        ({"operator": "sublaplacian"}, ("operator config", "object")),
        ({"f": {"poly": 5}}, ("f config", "string")),
        ({"f": {"builtin": "smooth_abs", "bogus": 1}}, ("f config", "bogus")),
        ({"max_iters": 200000}, ("unknown problem config keys: ['max_iters']",)),
    ],
    ids=[
        "grid-not-object", "operator-not-object", "poly-not-string", "builtin-unknown-key",
        "max-iters-removed",
    ],
)
def test_solve_malformed_section_exit_1(tmp_path, capsys, override, words):
    cfg = write_json(tmp_path / "prob.json", dict(SOLVE_CONFIG, **override))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "u.csv")]) == 1
    err = capsys.readouterr().err
    assert all(w in err for w in words), err


@pytest.mark.parametrize(
    "override,words",
    [
        ({"tol": [1]}, ("problem config", "'tol'")),
        (
            {"grid": {"lower": [-1, -1, -1], "upper": [1, 1, 1], "counts": [9, 9.5, 9]}},
            ("grid config", "'counts'", "integer"),
        ),
        ({"f": {"builtin": "smooth_abs", "eps": "x"}}, ("f config", "'eps'")),
        (
            {"operator": {"kind": "sublaplacian", "lambda": None, "Lambda": 1.0}},
            ("operator config", "'lambda'"),
        ),
        (
            {"grid": {"lower": [-1, None, -1], "upper": [1, 1, 1], "counts": [9, 9, 9]}},
            ("grid config", "'lower'"),
        ),
        (
            {"grid": {"lower": [-1, -1, -1], "upper": [1, 1, 1], "counts": 9}},
            ("grid config", "'counts'"),
        ),
        # json reads Infinity and NaN as floats; the config reader must not pass them on
        ({"tol": INF}, ("problem config 'tol'", "finite")),
        ({"tol": 10**400}, ("problem config 'tol'", "finite")),
        ({"sample_width": NAN}, ("problem config 'sample_width'", "finite")),
        # finite, but its square is not: the stencil weights would be 0 and inf
        ({"sample_width": 1e300}, ("sample_width", "finite square")),
        (
            {"operator": {"kind": "pucci_plus", "lambda": 1.0, "Lambda": INF}},
            ("operator config 'Lambda'", "finite"),
        ),
        (
            {"grid": {"lower": [-1, -1, -1], "upper": [1, -NAN, 1], "counts": [9, 9, 9]}},
            ("grid config 'upper'", "finite"),
        ),
        ({"f": {"builtin": "smooth_abs", "eps": -INF}}, ("f config 'eps'", "finite")),
    ],
    ids=[
        "tol-list",
        "grid-counts-fraction",
        "builtin-eps-string",
        "operator-lambda-null",
        "grid-lower-null",
        "grid-counts-scalar",
        "tol-inf",
        "tol-beyond-float",
        "sample-width-nan",
        "sample-width-1e300",
        "operator-Lambda-inf",
        "grid-upper-nan",
        "builtin-eps-inf",
    ],
)
def test_solve_wrong_typed_number_exit_1(tmp_path, capsys, override, words):
    cfg = write_json(tmp_path / "prob.json", dict(SOLVE_CONFIG, **override))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "u.csv")]) == 1
    err = capsys.readouterr().err
    assert all(w in err for w in words), err


@pytest.mark.parametrize(
    "field,message",
    [
        ({"poly": "x1^2.5"}, "f config 'poly': exponent 2.5 is not a nonnegative integer"),
        ({"poly": "x1^2."}, "f config 'poly': exponent 2. is not a nonnegative integer"),
        ({"poly": "x1^1e2"}, "f config 'poly': exponent 1e2 is not a nonnegative integer"),
        ({"poly": "1e400 x1"}, "f config 'poly': coefficient 1e400 is not finite"),
        (
            {"poly": "1e300 1e300 x1"},
            "f config 'poly': the coefficient of x1^1 x2^0 x3^0 lies beyond the float range "
            "(magnitude at most 1.79769e+308) in polynomial '1e300 1e300 x1'",
        ),
        ({"builtin": "smooth_abs", "eps": -1}, "f config: eps must be positive"),
    ],
    ids=["exponent-fraction", "exponent-trailing-dot", "exponent-scientific", "coefficient-inf",
         "coefficient-product-overflow", "builtin-eps-negative"],
)
def test_solve_bad_field_names_its_section_exit_1(tmp_path, capsys, field, message):
    cfg = write_json(tmp_path / "prob.json", dict(SOLVE_CONFIG, f=field))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "u.csv")]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override,words",
    [
        ({"bracket": {"lambda": None, "Lambda": 1.0}}, ("bracket config", "'lambda'")),
        ({"holder": dict(PIPELINE_CONFIG["holder"], beta="1")}, ("holder config", "'beta'")),
        ({"pairs": "many"}, ("pipeline config", "'pairs'")),
        ({"penalty": {"per_axis": [17]}}, ("penalty config", "'per_axis'")),
    ],
    ids=["bracket-lambda-null", "holder-beta-string", "pairs-string", "per-axis-list"],
)
def test_pipeline_wrong_typed_number_exit_1(tmp_path, capsys, override, words):
    cfg = write_json(tmp_path / "pipe.json", dict(PIPELINE_CONFIG, **override))
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert all(w in err for w in words), err


@pytest.mark.parametrize(
    "penalty",
    [{"per_axis": [17]}, {"delta": "1e-6"}, {"eps": None}, {"L_factor": [1.1]}, {"mu": 5.0}],
    ids=["per-axis-list", "delta-string", "eps-null", "l-factor-list", "mu-removed"],
)
def test_pipeline_bad_penalty_writes_nothing(tmp_path, capsys, penalty):
    cfg = write_json(tmp_path / "pipe.json", dict(PIPELINE_CONFIG, penalty=penalty))
    out = tmp_path / "o"
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 1
    assert "penalty config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("per_axis", [0, -1, 1])
def test_pipeline_rejects_per_axis_below_two_before_solving(tmp_path, capsys, monkeypatch, per_axis):
    def no_solve(prob):
        raise AssertionError("solve ran")

    monkeypatch.setattr("heisenpde.pipeline.solve", no_solve)
    cfg = write_json(tmp_path / "pipe.json", dict(PIPELINE_CONFIG, penalty={"per_axis": per_axis}))
    out = tmp_path / "o"
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 1
    assert "'per_axis'" in capsys.readouterr().err
    assert not out.exists()


def no_solve(prob):
    raise AssertionError("solve ran")


TRACE_LINEAR = {"kind": "trace_linear", "lambda": 1.0, "Lambda": 2.0}


@pytest.mark.parametrize(
    "operator,words",
    [
        (dict(SOLVE_CONFIG["operator"], form="intrinsic"), ("unknown operator config keys: ['form']",)),
        (dict(SOLVE_CONFIG["operator"], form="lifted"), ("unknown operator config keys: ['form']",)),
        (dict(TRACE_LINEAR, a=[[1.5]]), ("operator config 'a'", "2x2")),
        (dict(TRACE_LINEAR, a=[[1.5, 0, 0], [0, 1.5, 0], [0, 0, 1.5]]), ("operator config 'a'",)),
        (dict(TRACE_LINEAR, a=[[1.5, 0], [0, "1.5"]]), ("operator config 'a'",)),
        (dict(TRACE_LINEAR, a=[[1.5, 0], [0, float("nan")]]), ("operator config 'a'", "finite")),
        (dict(TRACE_LINEAR, a=[[1.5, 0.3], [0.1, 1.1]]), ("operator config 'a'", "symmetric")),
        (
            {"kind": "pucci_plus", "lambda": 1.0, "Lambda": 2.0, "a": [[1.5, 0.3], [0.3, 1.1]]},
            ("operator config 'a'", "trace_linear", "pucci_plus"),
        ),
    ],
    ids=[
        "form-intrinsic", "form-lifted", "a-1x1", "a-3x3", "a-string-entry", "a-nan",
        "a-nonsymmetric", "a-on-pucci",
    ],
)
def test_solve_rejects_bad_operator_before_solving(tmp_path, capsys, monkeypatch, operator, words):
    monkeypatch.setattr("heisenpde.cli.solve", no_solve)
    cfg = write_json(tmp_path / "prob.json", dict(SOLVE_CONFIG, operator=operator))
    out = tmp_path / "u.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(w in err for w in words), err
    assert list(tmp_path.iterdir()) == [tmp_path / "prob.json"]


def test_solve_rejects_c_negative_on_a_coarse_level(tmp_path, capsys):
    # (x1 - 1/3)^2 - 0.001 is positive on the 12^3 nodes and -0.001 at
    # x1 = 1/3, a node of the 7^3 level below them
    c = {"poly": "x1^2 - 0.6666666666666666 x1 + 0.11011111111111111"}
    grid = dict(SOLVE_CONFIG["grid"], counts=[12, 12, 12])
    cfg = write_json(tmp_path / "prob.json", dict(SOLVE_CONFIG, c=c, grid=grid))
    out = tmp_path / "u.csv"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "c must be nonnegative on every level" in err and "(7, 7, 7) level" in err, err
    assert not out.exists()


PUCCI_4 = {"kind": "pucci_plus", "lambda": 1.0, "Lambda": 4.0}


@pytest.mark.parametrize(
    "override,words",
    [
        (
            {"problem": dict(PIPELINE_CONFIG["problem"], operator=dict(PUCCI_4, form="lifted"))},
            ("unknown operator config keys: ['form']",),
        ),
        ({"margin": -0.1}, ("pipeline config 'margin'",)),
        ({"margin": 0.5}, ("pipeline config 'margin'",)),
        ({"margin": 0.6}, ("pipeline config 'margin'",)),
        ({"pairs": 0}, ("pipeline config 'pairs'",)),
        ({"pairs": -5}, ("pipeline config 'pairs'",)),
        ({"penalty": {"L_factor": 0}}, ("penalty config 'L_factor'",)),
        ({"penalty": {"L_factor": float("inf")}}, ("penalty config 'L_factor'",)),
        ({"penalty": {"delta": -1e-6}}, ("penalty config 'delta'",)),
        ({"penalty": {"eps": -1.0}}, ("penalty config 'eps'",)),
        ({"penalty": {"delta": NAN}}, ("penalty config 'delta'", "finite")),
        ({"penalty": {"eps": INF}}, ("penalty config 'eps'", "finite")),
        ({"margin": NAN}, ("pipeline config 'margin'", "finite")),
        ({"margin": 0.45}, ("margin 0.45", "[2h, diam/4] = [0.25, 0.0866")),
        ({"holder": dict(PIPELINE_CONFIG["holder"], L_f=INF)}, ("holder config 'L_f'", "finite")),
        (
            {"problem": dict(PIPELINE_CONFIG["problem"], c={"poly": "0.1"})},
            ("holder config 'c0'", "0.1"),
        ),
    ],
    ids=[
        "operator-form",
        "margin-negative",
        "margin-half",
        "margin-above-half",
        "pairs-zero",
        "pairs-negative",
        "l-factor-zero",
        "l-factor-inf",
        "delta-negative",
        "eps-negative",
        "delta-nan",
        "eps-inf",
        "margin-nan",
        "margin-too-coarse",
        "holder-L-f-inf",
        "c0-above-c",
    ],
)
def test_pipeline_rejects_bad_values_before_solving(tmp_path, capsys, monkeypatch, override, words):
    monkeypatch.setattr("heisenpde.pipeline.solve", no_solve)
    cfg = write_json(tmp_path / "pipe.json", dict(PIPELINE_CONFIG, **override))
    out = tmp_path / "o"
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(w in err for w in words), err
    assert not out.exists()


def test_pipeline_checks_c0_on_the_refined_grid(tmp_path, capsys, monkeypatch):
    # min c is 0.5009 on the 33^3 nodes but 0.5000016 on the 65^3 nodes, which
    # the pipeline also solves and checks
    monkeypatch.setattr("heisenpde.pipeline.solve", no_solve)
    cfg = json.loads((CONFIGS / "pipeline.json").read_text())
    cfg["problem"]["c"] = {"poly": "x1^2 - 0.06 x1 + 0.5009"}
    cfg["holder"]["c0"] = 0.5005
    out = tmp_path / "o"
    path = write_json(tmp_path / "pipe.json", cfg)
    assert main(["pipeline", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(w in err for w in ("holder config 'c0'", "0.5005", "refinement")), err
    assert not out.exists()
    cfg["holder"]["c0"] = 0.5
    assert PipelineConfig.from_config(cfg).check.hd.c0 == 0.5


def test_pipeline_bracket_must_contain_the_operators(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("heisenpde.pipeline.solve", no_solve)
    problem = dict(PIPELINE_CONFIG["problem"], operator=PUCCI_4)
    wide = dict(PIPELINE_CONFIG, problem=problem, bracket={"lambda": 0.5, "Lambda": 4.0})
    assert PipelineConfig.from_config(wide).check.bracket.lam == 0.5
    out = tmp_path / "o"
    for bracket in ((1.0, 1.0), (1.0, 2.0), (1.5, 4.0)):
        narrow = dict(wide, bracket={"lambda": bracket[0], "Lambda": bracket[1]})
        cfg = write_json(tmp_path / "pipe.json", narrow)
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert all(w in err for w in ("bracket config", "operator config", "[1.0, 4.0]")), err
        assert not out.exists()


@pytest.mark.parametrize(
    "override,words",
    [
        ({"margin": -0.1}, ("holder config 'margin'",)),
        ({"margin": 0.5}, ("holder config 'margin'",)),
        ({"pairs": 0}, ("holder config 'pairs'",)),
        ({"pairs": -5}, ("holder config 'pairs'",)),
    ],
    ids=["margin-negative", "margin-half", "pairs-zero", "pairs-negative"],
)
def test_holder_rejects_bad_values_before_reading_the_grid(tmp_path, capsys, override, words):
    base = {key: PIPELINE_CONFIG[key] for key in ("holder", "bracket")}
    hcfg = write_json(tmp_path / "holder.json", dict(base, **override))
    out = tmp_path / "o.json"
    argv = ["holder", "--grid", str(tmp_path / "absent.csv"), "--config", hcfg, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert all(w in err for w in words), err
    assert not out.exists()


@pytest.mark.parametrize(
    "text,words",
    [
        ("", ("too few data rows (0)",)),
        ("x1,x2,x3,u\n", ("too few data rows (0)",)),
        ("x1,x2,x3,u\n0,0,0,1\n", ("too few data rows (1)",)),
        ("x1,x2,x3,u\n0,0,0\n", ("columns x1,x2,x3,u",)),
    ],
    ids=["empty", "header-only", "one-row", "three-columns"],
)
def test_holder_names_the_row_count_of_a_short_grid_csv(tmp_path, capsys, text, words):
    grid_csv = tmp_path / "u.csv"
    grid_csv.write_text(text)
    hcfg = write_json(tmp_path / "holder.json", {key: PIPELINE_CONFIG[key] for key in ("holder", "bracket")})
    out = tmp_path / "o.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not escape
        assert main(["holder", "--grid", str(grid_csv), "--config", hcfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(w in err for w in words), err
    assert not out.exists()


def test_problem_stencil_scale_is_unknown(tmp_path, capsys):
    cfg = write_json(tmp_path / "prob.json", dict(SOLVE_CONFIG, stencil_scale=0.5))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "u.csv")]) == 1
    assert "stencil_scale" in capsys.readouterr().err


def test_problem_multilevel_is_unknown(tmp_path, capsys):
    cfg = write_json(tmp_path / "prob.json", dict(SOLVE_CONFIG, multilevel=True))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "u.csv")]) == 1
    assert "unknown problem config keys: ['multilevel']" in capsys.readouterr().err


def test_every_shipped_config_loads_through_its_reader():
    readers = {
        "solve_manufactured.json": ProblemSpec.from_config,
        "solve_pucci.json": ProblemSpec.from_config,
        "holder.json": holder_config,
        "pipeline.json": PipelineConfig.from_config,
        "pipeline_pucci.json": PipelineConfig.from_config,
    }
    assert sorted(p.name for p in CONFIGS.iterdir()) == sorted(readers)
    for name, reader in readers.items():
        reader(json.loads((CONFIGS / name).read_text()))


def test_holder_command(tmp_path):
    cfg = write_json(tmp_path / "prob.json", SOLVE_CONFIG)
    grid_csv = tmp_path / "u.csv"
    assert main(["solve", "--config", cfg, "--out", str(grid_csv)]) == 0
    hcfg = write_json(
        tmp_path / "holder.json",
        {
            "holder": {"c0": 1.0, "beta": 1.0, "beta_prime": 1.0, "L_c": 0.0, "L_f": 1.0},
            "bracket": {"lambda": 1.0, "Lambda": 1.0},
            "seed": 3,
            "pairs": 20000,
        },
    )
    out = tmp_path / "holder_report.json"
    code = main(["holder", "--grid", str(grid_csv), "--config", hcfg, "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["alpha_target"] == 0.45
    assert not rep["stability_checked"]
    # the seminorm is attained at a node distance j h of the 7^3 margin box
    radius = rep["seminorm_radius"]
    assert radius in [j * 0.25 for j in range(1, 7)]
    assert rep["seminorm_refined_radius"] == radius
    # the node radii 2h and 3h nearest 2h and diam/4 of the margin box
    assert rep["fit_radius_span"] == [0.5, 0.75]


def test_holder_ignores_seed_and_pairs(tmp_path):
    grid_csv = tmp_path / "u.csv"
    grid = Grid3.box((-1, -1, -1), (1, 1, 1), (9, 9, 9))
    GridFunction(grid, np.sin(3 * grid.points()).sum(axis=1).reshape(9, 9, 9)).to_csv(grid_csv)
    base = {key: PIPELINE_CONFIG[key] for key in ("holder", "bracket")}
    reports = []
    for seed, pairs in ((0, 200000), (7, 1)):
        hcfg = write_json(tmp_path / "holder.json", dict(base, seed=seed, pairs=pairs))
        out = tmp_path / f"holder_{seed}.json"
        assert main(["holder", "--grid", str(grid_csv), "--config", hcfg, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
def test_holder_rejects_a_non_finite_grid_value(tmp_path, capsys, bad):
    grid = Grid3.box((-1, -1, -1), (1, 1, 1), (9, 9, 9))
    values = np.sin(3 * grid.points()).sum(axis=1).reshape(9, 9, 9)
    values[4, 5, 6] = bad
    grid_csv = tmp_path / "u.csv"
    GridFunction(grid, values).to_csv(grid_csv)
    hcfg = write_json(tmp_path / "holder.json", {key: PIPELINE_CONFIG[key] for key in ("holder", "bracket")})
    out = tmp_path / "o.json"
    assert main(["holder", "--grid", str(grid_csv), "--config", hcfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "(0, 0.25, 0.5)" in err and "not finite" in err, err
    assert not out.exists()


def test_holder_rejects_a_margin_too_wide_for_the_grid(tmp_path, capsys):
    grid_csv = tmp_path / "u.csv"
    GridFunction(Grid3.box((-1, -1, -1), (1, 1, 1), (9, 9, 9)), np.zeros((9, 9, 9))).to_csv(grid_csv)
    hcfg = write_json(tmp_path / "holder.json", dict({key: PIPELINE_CONFIG[key] for key in ("holder", "bracket")}, margin=0.3))
    out = tmp_path / "o.json"
    assert main(["holder", "--grid", str(grid_csv), "--config", hcfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(w in err for w in ("margin 0.3", "[2h, diam/4] = [0.5, 0.3464")), err
    assert not out.exists()


def test_holder_rejects_zero_c0(tmp_path):
    cfg = write_json(tmp_path / "prob.json", SOLVE_CONFIG)
    grid_csv = tmp_path / "u.csv"
    main(["solve", "--config", cfg, "--out", str(grid_csv)])
    hcfg = write_json(
        tmp_path / "holder.json",
        {
            "holder": {"c0": 0.0, "beta": 1.0, "beta_prime": 1.0, "L_c": 0.0, "L_f": 1.0},
            "bracket": {"lambda": 1.0, "Lambda": 1.0},
        },
    )
    assert main(["holder", "--grid", str(grid_csv), "--config", hcfg, "--out", str(tmp_path / "o.json")]) == 1


@pytest.mark.parametrize("refined", [["u_fine.csv"], 3], ids=["list", "int"])
def test_holder_rejects_non_string_refined_grid(tmp_path, capsys, refined):
    cfg = write_json(tmp_path / "prob.json", SOLVE_CONFIG)
    grid_csv = tmp_path / "u.csv"
    assert main(["solve", "--config", cfg, "--out", str(grid_csv)]) == 0
    hcfg = write_json(
        tmp_path / "holder.json",
        {
            "holder": {"c0": 1.0, "beta": 1.0, "beta_prime": 1.0, "L_c": 0.0, "L_f": 1.0},
            "bracket": {"lambda": 1.0, "Lambda": 1.0},
            "refined_grid": refined,
        },
    )
    out = tmp_path / "o.json"
    argv = ["holder", "--grid", str(grid_csv), "--config", hcfg, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "holder config 'refined_grid'" in err and "string" in err, err
    assert not out.exists()


def holder_with_refined_grid(tmp_path, coarse: Grid3, fine: Grid3) -> tuple[list, Path]:
    """holder argv on a field sampled on `coarse`, with refined_grid on `fine`."""
    paths = []
    for name, grid in (("u.csv", coarse), ("u_fine.csv", fine)):
        paths.append(tmp_path / name)
        GridFunction(grid, np.sin(3 * grid.points()).sum(axis=1)).to_csv(paths[-1])
    base = {key: PIPELINE_CONFIG[key] for key in ("holder", "bracket")}
    hcfg = write_json(tmp_path / "holder.json", dict(base, refined_grid=str(paths[1])))
    out = tmp_path / "o.json"
    return ["holder", "--grid", str(paths[0]), "--config", hcfg, "--out", str(out)], out


def test_holder_rejects_a_refined_grid_that_is_not_the_refinement(tmp_path, capsys):
    # a coarser grid on the same box used to pass with a seminorm change of 0
    coarse, fine = (Grid3.box((-1, -1, -1), (1, 1, 1), (n, n, n)) for n in (33, 17))
    argv, out = holder_with_refined_grid(tmp_path, coarse, fine)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "refined grid has counts (17, 17, 17)" in err, err
    assert "(33, 33, 33) grid has (65, 65, 65)" in err, err
    assert not out.exists()


def test_holder_rejects_a_refined_grid_on_another_box(tmp_path, capsys):
    coarse = Grid3.box((-1, -1, -1), (1, 1, 1), (9, 9, 9))
    fine = Grid3.box((-1, -1, -1), (1, 1, 2), (17, 17, 17))
    argv, out = holder_with_refined_grid(tmp_path, coarse, fine)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "refined grid must cover the same box as the grid" in err, err
    assert "(1.0, 1.0, 2.0)" in err and "(1.0, 1.0, 1.0)" in err, err
    assert not out.exists()


def test_holder_accepts_the_refinement_read_back_from_csv(tmp_path):
    coarse = Grid3.box((-1, -1, -1), (1, 1, 1), (9, 9, 9))
    argv, out = holder_with_refined_grid(tmp_path, coarse, coarse.refine())
    assert main(argv) == 0
    assert json.loads(out.read_text())["stability_checked"]


def test_solve_rejects_a_sample_step_with_infinite_square(tmp_path, capsys):
    # h = 2.5e159 on the huge box: rho^2 overflows, and the solve used to fail
    # later with a non-finite update after numpy overflow warnings
    grid = {"lower": [-1e160, -1e160, -1], "upper": [1e160, 1e160, 1], "counts": [9, 9, 9]}
    cfg = write_json(tmp_path / "prob.json", dict(SOLVE_CONFIG, grid=grid))
    out = tmp_path / "u.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "sample step must be positive with finite square" in err and "2.5e+159" in err, err
    assert not out.exists()


def test_solve_rejects_a_grid_whose_spacing_overflows(tmp_path, capsys):
    # every number is finite, but the spacing 2e308 / 8 is not; the solve
    # used to exit with numpy's "Maximum allowed dimension exceeded"
    grid = {"lower": [-1e308, -1, -1], "upper": [1e308, 1, 1], "counts": [9, 9, 9]}
    shipped = json.loads((CONFIGS / "solve_manufactured.json").read_text())
    cfg = write_json(tmp_path / "prob.json", dict(shipped, grid=grid))
    out = tmp_path / "u.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "grid spacings must be positive and finite, got (inf, 0.25, 0.25)" in err, err
    assert not out.exists()


def test_solve_rejects_c_that_overflows_on_the_grid(tmp_path, capsys):
    # x3^2 overflows to inf at the top and bottom of the box, which passes
    # the check min c >= 0
    grid = {"lower": [-1, -1, -1e160], "upper": [1, 1, 1e160], "counts": [9, 9, 9]}
    cfg = write_json(tmp_path / "prob.json", dict(SOLVE_CONFIG, grid=grid, c={"poly": "1 + x3^2"}))
    out = tmp_path / "u.csv"
    with np.errstate(over="ignore"):
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "c must be finite on the grid, got inf at node (0, 0, 0)" in err, err
    assert not out.exists()


def test_run_pipeline_returns_what_the_cli_writes(tmp_path):
    cfg = write_json(tmp_path / "pipe.json", PIPELINE_CONFIG)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", cfg, "--out", str(out), "--emit-plot-data"]) == 0
    artifacts = run_pipeline(PIPELINE_CONFIG, emit_plot_data=True)
    assert sorted(artifacts) == sorted(p.name for p in out.iterdir())
    for name, artifact in artifacts.items():
        written = (out / name).read_text()
        if isinstance(artifact, GridFunction):
            artifact.to_csv(tmp_path / "again.csv")
            assert (tmp_path / "again.csv").read_text() == written, name
        elif isinstance(artifact, dict):
            assert json.dumps(artifact, indent=2, sort_keys=True) + "\n" == written, name
        else:
            assert artifact == written, name


def test_run_pipeline_frees_the_refined_problem_before_the_certificate(monkeypatch):
    from heisenpde import pipeline

    solve, certificate = pipeline.solve, pipeline.doubling_certificate
    solved, grids, alive = [], [], []

    def tracked_solve(prob):
        solved.append(weakref.ref(prob))
        grids.append(prob.grid)
        return solve(prob)

    def tracked_certificate(*args, **kwargs):
        alive.append(solved[1]() is not None)
        return certificate(*args, **kwargs)

    monkeypatch.setattr(pipeline, "solve", tracked_solve)
    monkeypatch.setattr(pipeline, "doubling_certificate", tracked_certificate)
    run_pipeline(PIPELINE_CONFIG)
    assert len(grids) == 2 and grids[1] == grids[0].refine()
    assert alive == [False]


def test_pipeline_nonconvergence_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_Multilevel, "MAX_CYCLES", 1)
    problem = dict(PIPELINE_CONFIG["problem"], tol=1e-14)
    cfg = write_json(tmp_path / "pipe.json", dict(PIPELINE_CONFIG, problem=problem))
    out = tmp_path / "o"
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 2
    assert "did not converge" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == [
        "pipeline_report.json",
        "solution.csv",
        "solution.diag.json",
        "solution_refined.csv",
        "solution_refined.diag.json",
    ]
    assert json.loads((out / "pipeline_report.json").read_text()) == {
        "converged": False,
        "pass": False,
    }


def test_pipeline_removes_stale_plot_data(tmp_path):
    cfg = write_json(tmp_path / "pipe.json", PIPELINE_CONFIG)
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    assert main(["pipeline", "--config", cfg, "--out", str(out), "--emit-plot-data"]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS + ("notes.txt",))
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert names == set(ARTIFACTS) - {"modulus.csv"} | {"notes.txt"}
    assert (out / "notes.txt").read_text() == "kept"


def test_pipeline_nonconvergence_removes_stale_reports(tmp_path, monkeypatch):
    out = tmp_path / "run"
    cfg = write_json(tmp_path / "pipe.json", PIPELINE_CONFIG)
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept")
    monkeypatch.setattr(_Multilevel, "MAX_CYCLES", 1)
    problem = dict(PIPELINE_CONFIG["problem"], tol=1e-14)
    stuck = write_json(tmp_path / "stuck.json", dict(PIPELINE_CONFIG, problem=problem))
    assert main(["pipeline", "--config", stuck, "--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == [
        "notes.txt",
        "pipeline_report.json",
        "solution.csv",
        "solution.diag.json",
        "solution_refined.csv",
        "solution_refined.diag.json",
    ]
    assert (out / "notes.txt").read_text() == "kept"


def test_pipeline_end_to_end(tmp_path):
    cfg = write_json(tmp_path / "pipe.json", PIPELINE_CONFIG)
    out = tmp_path / "run"
    code = main(["pipeline", "--config", cfg, "--out", str(out), "--emit-plot-data"])
    assert code == 0
    for name in (
        "solution.csv",
        "solution.diag.json",
        "solution_refined.csv",
        "solution_refined.diag.json",
        "holder_report.json",
        "certificate.json",
        "pipeline_report.json",
        "modulus.csv",
    ):
        assert (out / name).exists(), name
    merged = json.loads((out / "pipeline_report.json").read_text())
    assert merged["pass"]
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["theta"] <= 0.0
    first = (out / "modulus.csv").read_text().splitlines()
    assert first[0] == "r,omega_r"


def test_pipeline_deterministic(tmp_path):
    cfg = write_json(tmp_path / "pipe.json", PIPELINE_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["pipeline", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["pipeline", "--config", cfg, "--out", str(out2)]) == 0
    for name in (
        "pipeline_report.json",
        "holder_report.json",
        "certificate.json",
        "solution.csv",
        "solution_refined.csv",
    ):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_pipeline_rejects_bad_configs(tmp_path, capsys):
    bad = dict(PIPELINE_CONFIG, holder=dict(PIPELINE_CONFIG["holder"], c0=0.0))
    cfg = write_json(tmp_path / "pipe.json", bad)
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "c0" in capsys.readouterr().err
    unknown = dict(PIPELINE_CONFIG, magic=1)
    cfg2 = write_json(tmp_path / "pipe2.json", unknown)
    assert main(["pipeline", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 1
    assert main(["pipeline", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o3")]) == 1


def test_verify_detects_corrupted_pucci(tmp_path, monkeypatch):
    from heisenpde.operators import OperatorSpec, cross_term

    def flipped(self, rows):
        hxx, hxy, hyy = rows[0], cross_term(rows[2], rows[3]), rows[1]
        lam, Lam = self.bracket.lam, self.bracket.Lam
        mean, r = 0.5 * (hxx + hyy), np.hypot(0.5 * (hxx - hyy), hxy)
        return sum(np.where(e > 0, Lam * e, -lam * e) for e in (mean - r, mean + r))

    monkeypatch.setattr(OperatorSpec, "apply_batch", flipped)
    out = tmp_path / "report.json"
    code = main(["verify", "--filter", "operators.pucci_bruteforce", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    failing = [c["lemma_id"] for c in report["checks"] if not c["pass"]]
    assert failing == ["operators.pucci_bruteforce"]


def test_pipeline_timings_sidecar(tmp_path):
    cfg = write_json(tmp_path / "pipe.json", PIPELINE_CONFIG)
    out, plain = tmp_path / "timed", tmp_path / "plain"
    assert main(["pipeline", "--config", cfg, "--out", str(out), "--timings"]) == 0
    timings = json.loads((out / TIMINGS).read_text())
    stages = {"coarse_solve_s", "refined_solve_s", "check_theorem_s", "certificate_s"}
    assert set(timings) == stages | {"artifact_writes_s"}
    assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())
    # the sidecar is no artifact: the artifacts are those of an untimed run
    assert main(["pipeline", "--config", cfg, "--out", str(plain)]) == 0
    assert sorted(p.name for p in plain.iterdir()) == sorted(set(ARTIFACTS) - {"modulus.csv"})
    for p in plain.iterdir():
        assert (out / p.name).read_bytes() == p.read_bytes(), p.name
    # an untimed run into the same directory does not leave an earlier run's timings
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
    assert not (out / TIMINGS).exists()


def test_pipeline_timings_of_the_stages_that_ran(tmp_path, monkeypatch):
    timings = {}
    run_pipeline(PIPELINE_CONFIG, emit_plot_data=True, timings=timings)
    assert set(timings) == {
        "coarse_solve_s", "refined_solve_s", "check_theorem_s", "certificate_s", "modulus_s"
    }
    monkeypatch.setattr(_Multilevel, "MAX_CYCLES", 1)
    problem = dict(PIPELINE_CONFIG["problem"], tol=1e-14)
    stuck = write_json(tmp_path / "stuck.json", dict(PIPELINE_CONFIG, problem=problem))
    out = tmp_path / "o"
    assert main(["pipeline", "--config", stuck, "--out", str(out), "--timings"]) == 2
    timings = json.loads((out / TIMINGS).read_text())
    assert set(timings) == {"coarse_solve_s", "refined_solve_s", "artifact_writes_s"}
