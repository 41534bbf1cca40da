import shlex
from pathlib import Path

import numpy as np
import pytest

from decoupline import cli
from decoupline.cli import main
from decoupline.decoupling import load_model, predict
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
    assert "model written to" in out and "iterations" in out
    model = load_model(model_path)
    assert model.W1.shape == (2, 2)
    header = diag_path.read_text().splitlines()[0]
    assert header == "iter,objective,tensor_term,coupling_term"


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


def test_certify_missing_model(tmp_path, capsys):
    assert main(["certify", "--model", str(tmp_path / "none.json")]) == 1
    assert "file not found" in capsys.readouterr().err


def test_experiment_mono_row_count(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main([
        "experiment", "mono", "--runs", "1", "--dfs", "8,12",
        "--samples", "60", "--max-iter", "25", "--out-dir", str(out_dir),
    ])
    assert code == 0
    assert "4 runs recorded" in capsys.readouterr().out
    lines = (out_dir / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 1 * 2  # header + arms * runs * dfs
    assert (out_dir / "counts.csv").exists()


def test_experiment_trig_row_count(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main([
        "experiment", "trig", "--runs", "2", "--degrees", "2", "--dfs", "6",
        "--samples", "50", "--max-iter", "20", "--out-dir", str(out_dir),
    ])
    assert code == 0
    lines = (out_dir / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2


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
