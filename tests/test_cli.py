import json
import re
import shlex
from dataclasses import fields
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from decoupline import cli, experiments
from decoupline.cli import main
from decoupline.bspline import Constraint, Representation
from decoupline.decoupling import CmtfConfig, load_model, predict
from decoupline.experiments import ExperimentSpec, median_table, monotone_counts, read_records
from decoupline.sysgen import builtin_trig, jacobian_tensor, sample_for_system, zeroth_matrix
from decoupline.tensor3 import read_matrix, write_matrix, write_tensor


@pytest.fixture
def fixture_files(tmp_path, quadratic_system):
    J, F, x = quadratic_system
    paths = {
        "tensor": tmp_path / "jacobian.txt",
        "zeroth": tmp_path / "values.txt",
        "samples": tmp_path / "samples.txt",
    }
    write_tensor(J, paths["tensor"])
    write_matrix(F, paths["zeroth"])
    write_matrix(x, paths["samples"])
    return tmp_path, paths


def fit_args(paths, out, extra=()):
    return [
        "decouple",
        "--tensor", str(paths["tensor"]),
        "--zeroth", str(paths["zeroth"]),
        "--samples", str(paths["samples"]),
        "--rank", "2", "--degree", "2", "--dof", "5",
        "--max-iter", "30",
        "--out", str(out),
        *extra,
    ]


def test_decouple_happy_path(fixture_files, capsys):
    tmp_path, paths = fixture_files
    model_path = tmp_path / "model.json"
    diag_path = tmp_path / "diag.csv"
    code = main(fit_args(paths, model_path, ["--diagnostics", str(diag_path)]))
    assert code == 0
    out = capsys.readouterr().out
    assert "model written to" in out
    said = re.search(r"fit finished after (\d+) iterations \((converged|stalled|budget)\)", out)
    assert said
    model = load_model(model_path)
    assert model.W1.shape == (2, 2)
    lines = diag_path.read_text().splitlines()
    assert lines[0] == "iter,objective,tensor_term,coupling_term"
    assert len(lines) - 1 == int(said.group(1))


def test_decouple_missing_file(fixture_files, capsys):
    tmp_path, paths = fixture_files
    args = fit_args(paths, tmp_path / "m.json")
    args[args.index("--tensor") + 1] = str(tmp_path / "nope.txt")
    assert main(args) == 1
    assert "file not found" in capsys.readouterr().err


def test_decouple_malformed_tensor(fixture_files, capsys):
    tmp_path, paths = fixture_files
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n0.5\n")
    args = fit_args(paths, tmp_path / "m.json")
    args[args.index("--tensor") + 1] = str(bad)
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_decouple_shape_mismatch(fixture_files, capsys):
    tmp_path, paths = fixture_files
    wrong = tmp_path / "wrong.txt"
    write_matrix(np.ones((3, 7)), wrong)
    args = fit_args(paths, tmp_path / "m.json")
    args[args.index("--zeroth") + 1] = str(wrong)
    assert main(args) == 1
    assert "F must be" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--lambda", "inf"), ("--rel-tol", "inf")])
def test_decouple_non_finite_settings_exit_one(fixture_files, capsys, flag, value):
    tmp_path, paths = fixture_files
    assert main(fit_args(paths, tmp_path / "m.json", [flag, value])) == 1
    assert "positive and finite" in capsys.readouterr().err


def test_decouple_rel_tol_of_one_exits_one(fixture_files, capsys):
    tmp_path, paths = fixture_files
    assert main(fit_args(paths, tmp_path / "m.json", ["--rel-tol", "1"])) == 1
    assert "rel_tol must be positive and below 1" in capsys.readouterr().err


# the settings each command builds from its options


class Built(Exception):
    """Stops a command once it has handed its settings on."""


def built_by(monkeypatch, name, argv):
    """The settings object the command passes last to cli.<name>."""
    seen = []

    def stand_in(*args):
        seen.append(args[-1])
        raise Built

    monkeypatch.setattr(cli, name, stand_in)
    with pytest.raises(Built):
        main(argv)
    return seen[0]


def test_decouple_builds_the_config_of_its_options(fixture_files, monkeypatch):
    _, paths = fixture_files
    files = [
        "decouple", "--tensor", str(paths["tensor"]), "--zeroth", str(paths["zeroth"]),
        "--samples", str(paths["samples"]), "--out", "m.json",
    ]
    assert built_by(monkeypatch, "decouple", files) == CmtfConfig(rank=3, degree=3, df=16)
    got = built_by(monkeypatch, "decouple", files + [
        "--rank", "4", "--degree", "2", "--dof", "7", "--lambda", "0.3",
        "--constraint", "increasing", "--rep", "derivative", "--seed", "9",
        "--max-iter", "17", "--rel-tol", "1e-5",
    ])
    want = CmtfConfig(
        rank=4, degree=2, df=7, lam=0.3, representation=Representation.DERIVATIVE,
        constraint=Constraint.MONOTONE_INCREASING, max_iter=17, rel_tol=1e-5, seed=9,
    )
    assert got == want
    default = CmtfConfig(rank=3, degree=3, df=16)
    for f in fields(CmtfConfig):
        assert getattr(got, f.name) != getattr(default, f.name), f.name


def test_experiment_builds_the_spec_of_its_options(tmp_path, monkeypatch):
    got = built_by(monkeypatch, "run_experiment", ["experiment", "trig"])
    assert got == ExperimentSpec(kind="trig", out_dir="out")
    got = built_by(monkeypatch, "run_experiment", [
        "experiment", "mono", "--runs", "2", "--samples", "40", "--seed", "5",
        "--lambda", "0.2", "--degrees", "3,4", "--dfs", "9,11", "--max-iter", "12",
        "--rel-tol", "1e-4", "--out-dir", str(tmp_path), "--plots",
    ])
    want = ExperimentSpec(
        kind="mono", degrees=(3, 4), dfs=(9, 11), runs=2, samples=40, lam=0.2,
        base_seed=5, out_dir=tmp_path, plots=True, max_iter=12, rel_tol=1e-4,
    )
    assert got == want
    default = ExperimentSpec(kind="mono", out_dir="out")
    for f in fields(ExperimentSpec):
        if f.name != "kind":
            assert getattr(got, f.name) != getattr(default, f.name), f.name


def test_experiment_kinds_are_the_study_table(tmp_path, monkeypatch):
    # a study added to the table is a kind on the command line, with no
    # second list to edit
    monkeypatch.setitem(experiments._STUDIES, "trig2", experiments._STUDIES["trig"])
    for kind in experiments._STUDIES:
        got = built_by(monkeypatch, "run_experiment", ["experiment", kind, "--out-dir", str(tmp_path)])
        assert got == ExperimentSpec(kind=kind, out_dir=tmp_path)
    monkeypatch.delitem(experiments._STUDIES, "trig2")
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "trig2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_experiment_without_samples_exits_one(tmp_path, capsys, samples):
    code = main(["experiment", "trig", "--samples", samples, "--out-dir", str(tmp_path)])
    assert code == 1
    assert "samples must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_experiment_with_too_few_samples_for_its_grid_exits_one(tmp_path, capsys):
    code = main([
        "experiment", "trig", "--runs", "1", "--degrees", "3", "--dfs", "12",
        "--samples", "10", "--out-dir", str(tmp_path),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: need at least df + degree + 2 = 17 samples, got 10.\n"
    assert not (tmp_path / "results.csv").exists()


def test_predict_round_trip(fixture_files, capsys):
    tmp_path, paths = fixture_files
    model_path = tmp_path / "model.json"
    assert main(fit_args(paths, model_path)) == 0
    inputs = tmp_path / "inputs.txt"
    write_matrix(np.array([[0.1, -0.4, 0.9], [0.0, 0.7, -1.1]]), inputs)
    out_path = tmp_path / "pred.txt"
    code = main([
        "predict", "--model", str(model_path),
        "--inputs", str(inputs), "--out", str(out_path),
    ])
    assert code == 0
    capsys.readouterr()
    got = read_matrix(out_path)
    expect = predict(load_model(model_path), read_matrix(inputs))
    assert np.array_equal(got, expect)
    # without --out the rows go to stdout
    assert main(["predict", "--model", str(model_path), "--inputs", str(inputs)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert np.allclose([float(v) for v in lines[0].split(",")], expect[0], atol=0)


def test_predict_wrong_input_rows(fixture_files, capsys):
    tmp_path, paths = fixture_files
    model_path = tmp_path / "model.json"
    assert main(fit_args(paths, model_path)) == 0
    capsys.readouterr()
    bad = tmp_path / "bad_inputs.txt"
    write_matrix(np.ones((5, 3)), bad)
    assert main(["predict", "--model", str(model_path), "--inputs", str(bad)]) == 1
    assert "rows" in capsys.readouterr().err


def test_predict_non_finite_inputs_exit_one(fixture_files, capsys):
    tmp_path, paths = fixture_files
    model_path = tmp_path / "model.json"
    assert main(fit_args(paths, model_path)) == 0
    capsys.readouterr()
    bad = tmp_path / "nan_inputs.txt"
    bad.write_text("0.1,nan,inf\n0.2,0.3,0.0\n")
    out_path = tmp_path / "pred.txt"
    code = main(["predict", "--model", str(model_path), "--inputs", str(bad), "--out", str(out_path)])
    assert code == 1
    assert "error: non-finite values encountered in inputs, first in column 1" in capsys.readouterr().err
    assert not out_path.exists()


def test_predict_far_inputs_exit_one(fixture_files, capsys):
    tmp_path, paths = fixture_files
    model_path = tmp_path / "model.json"
    assert main(fit_args(paths, model_path)) == 0
    capsys.readouterr()
    far = tmp_path / "far_inputs.txt"
    write_matrix(np.array([[0.1, 1e300, 0.2], [0.2, 1e300, 0.0]]), far)
    out_path = tmp_path / "pred.txt"
    code = main(["predict", "--model", str(model_path), "--inputs", str(far), "--out", str(out_path)])
    assert code == 1
    assert "error: outputs are not finite, first in column 1" in capsys.readouterr().err
    assert not out_path.exists()


def test_predict_stdout_bytes_match_per_scalar_repr(fixture_files, capsys, monkeypatch):
    tmp_path, paths = fixture_files
    model_path = tmp_path / "model.json"
    assert main(fit_args(paths, model_path)) == 0
    inputs = tmp_path / "inputs.txt"
    write_matrix(np.zeros((2, 3)), inputs)
    special = np.array([[-0.0, 5e-324, 1.5e-310, np.inf], [-np.inf, 1.7976931348623157e308, 0.1, np.nan]])
    monkeypatch.setattr(cli, "predict", lambda model, X: special)
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--inputs", str(inputs)]) == 0
    expect = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in special)
    assert capsys.readouterr().out == expect


def test_certify_reports_every_branch(fixture_files, capsys):
    tmp_path, paths = fixture_files
    model_path = tmp_path / "model.json"
    assert main(fit_args(paths, model_path)) == 0
    capsys.readouterr()
    assert main(["certify", "--model", str(model_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for j, line in enumerate(lines, start=1):
        assert line.startswith(f"branch {j}: ")
        assert line.endswith(("CERTIFIED_INCREASING", "NOT_CERTIFIED"))


def test_certify_constrained_fit_all_certified(fixture_files, capsys):
    tmp_path, paths = fixture_files
    model_path = tmp_path / "model_mono.json"
    code = main(fit_args(
        paths, model_path,
        ["--constraint", "increasing", "--rep", "derivative"],
    ))
    assert code == 0
    capsys.readouterr()
    assert main(["certify", "--model", str(model_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.endswith("CERTIFIED_INCREASING") for line in lines)


def test_non_finite_model_exits_one(fixture_files, capsys):
    tmp_path, paths = fixture_files
    model_path = tmp_path / "model.json"
    assert main(fit_args(paths, model_path)) == 0
    payload = json.loads(model_path.read_text())
    payload["branches"][1]["coeffs"][3] = float("nan")
    model_path.write_text(json.dumps(payload))
    inputs = tmp_path / "inputs.txt"
    write_matrix(np.zeros((2, 3)), inputs)
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--inputs", str(inputs)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "non-finite value in branch 2 coeffs" in out.err
    assert main(["certify", "--model", str(model_path)]) == 1
    assert "non-finite value in branch 2 coeffs" in capsys.readouterr().err


def test_certify_missing_model(tmp_path, capsys):
    assert main(["certify", "--model", str(tmp_path / "none.json")]) == 1
    assert "file not found" in capsys.readouterr().err


def summary_rows(out: str) -> list:
    """The printed summary's data rows (those that start with a number)."""
    rows = [line.split() for line in out.split("results.csv\n", 1)[1].splitlines()]
    return [row for row in rows if row and row[0].isdigit()]


def test_experiment_mono_row_count(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main([
        "experiment", "mono", "--runs", "1", "--dfs", "8,12",
        "--samples", "60", "--max-iter", "25", "--out-dir", str(out_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "4 runs recorded" in out
    lines = (out_dir / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 1 * 2  # header + arms * runs * dfs
    assert (out_dir / "counts.csv").exists()
    # one row per df: degree, df, certified runs and median Error(J) per arm
    records = read_records(out_dir / "results.csv")
    meds = median_table(records, lambda rec: rec.error_j)
    counts = monotone_counts(records)
    rows = summary_rows(out)
    assert [row[:2] for row in rows] == [["4", "8"], ["4", "12"]]
    for _, df, unc, con, err_unc, err_con in rows:
        df = int(df)
        assert (int(unc), int(con)) == (counts[(False, df)], counts[(True, df)])
        assert err_unc == f"{meds[(4, df, False)]:.4f}"
        assert err_con == f"{meds[(4, df, True)]:.4f}"


def test_experiment_trig_row_count(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main([
        "experiment", "trig", "--runs", "2", "--degrees", "2", "--dfs", "6,8",
        "--samples", "50", "--max-iter", "20", "--out-dir", str(out_dir),
    ])
    assert code == 0
    lines = (out_dir / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + runs * dfs
    # one row per df: the median worst-output poly-refit error per degree
    meds = median_table(read_records(out_dir / "results.csv"), lambda rec: max(rec.poly_errors))
    rows = summary_rows(capsys.readouterr().out)
    assert rows == [["6", f"{meds[(2, 6, False)]:.3f}"], ["8", f"{meds[(2, 8, False)]:.3f}"]]


@pytest.mark.parametrize("kind, n_out", [("mono", 3), ("trig", 2)])
def test_experiment_plots_write_one_svg_per_metric(tmp_path, capsys, kind, n_out):
    code = main([
        "experiment", kind, "--runs", "1", "--dfs", "8", "--samples", "60",
        "--max-iter", "10", "--plots", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    names = ["error_j"] + [f"{p}e{i}" for p in ("", "poly_") for i in range(1, n_out + 1)]
    assert sorted(path.stem for path in tmp_path.glob("*.svg")) == sorted(names)
    for name in names:
        root = ElementTree.parse(tmp_path / f"{name}.svg").getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"


def test_argparse_rejects_garbage():
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "banana"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "mono", "--dfs", "8,x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def readme_commands(*names):
    """The README's `decoupline <name> ...` example lines, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```")[1]
    argvs = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]
    return [next(a for a in argvs if a and a[0] == name) for name in names]


def test_readme_decouple_predict_certify(tmp_path, monkeypatch, capsys):
    system = builtin_trig()
    samples = sample_for_system(system, 100, -1.5, 1.5, 0)
    write_tensor(jacobian_tensor(system, samples), tmp_path / "J.txt")
    write_matrix(zeroth_matrix(system, samples), tmp_path / "F.txt")
    write_matrix(samples.X, tmp_path / "X.txt")
    monkeypatch.chdir(tmp_path)
    decouple_argv, predict_argv, certify_argv = readme_commands("decouple", "predict", "certify")
    assert main(decouple_argv) == 0
    assert main(predict_argv) == 0
    capsys.readouterr()
    assert main(certify_argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [f"branch {j}: CERTIFIED_INCREASING" for j in (1, 2, 3)]
