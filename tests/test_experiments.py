import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from decoupline.experiments import (
    ExperimentSpec,
    RunRecord,
    error_tensor,
    median_table,
    monotone_counts,
    output_error,
    poly_refit,
    read_records,
    run_experiment,
    write_counts,
    write_records,
)
from decoupline.sysgen import builtin_mono, builtin_trig
from decoupline.tensor3 import Tensor3, frob_norm_sq


def make_record(run_index=0, seed=0, degree=3, df=12, constrained=False, **kw):
    base = dict(
        error_j=0.5,
        errors=(1.0, 2.0),
        poly_errors=(1.5, 2.5),
        monotone=(True, False, True),
        iterations=10,
    )
    base.update(kw)
    return RunRecord(
        run_index=run_index, seed=seed, degree=degree, df=df,
        constrained=constrained, **base,
    )


# metrics


def test_error_tensor_basic_cases():
    rng = np.random.default_rng(0)
    J = Tensor3(rng.standard_normal((2, 3, 4)))
    assert error_tensor(J, J.data) == 0.0
    assert error_tensor(J, np.zeros((2, 3, 4))) == pytest.approx(1.0, rel=1e-12)
    assert error_tensor(J, 2 * J.data) == pytest.approx(1.0, rel=1e-12)


def test_error_tensor_brute_force():
    rng = np.random.default_rng(1)
    J = Tensor3(rng.standard_normal((3, 3, 5)))
    J_hat = rng.standard_normal((3, 3, 5))
    num = sum(
        (J.data[i, j, k] - J_hat[i, j, k]) ** 2
        for i in range(3) for j in range(3) for k in range(5)
    )
    den = sum(
        J.data[i, j, k] ** 2
        for i in range(3) for j in range(3) for k in range(5)
    )
    assert error_tensor(J, J_hat) == pytest.approx(num / den, rel=1e-12)


def test_error_tensor_zero_reference():
    with pytest.raises(ValueError, match="zero norm"):
        error_tensor(Tensor3(np.zeros((2, 2, 2))), np.ones((2, 2, 2)))


def test_output_error_exact_match_is_zero():
    truth = np.random.default_rng(2).standard_normal((2, 30))
    assert np.allclose(output_error(truth, truth), 0.0)


def test_output_error_mean_predictor_scores_100():
    truth = np.random.default_rng(3).standard_normal((2, 50))
    fitted = np.repeat(truth.mean(axis=1, keepdims=True), 50, axis=1)
    assert np.allclose(output_error(truth, fitted), 100.0, rtol=1e-12)


def test_output_error_hand_case():
    # truth [0, 2] vs zero model: RMS error sqrt(2), RMS deviation 1
    e = output_error([[0.0, 2.0]], [[0.0, 0.0]])
    assert e[0] == pytest.approx(100.0 * math.sqrt(2.0), rel=1e-12)


def test_output_error_brute_force():
    rng = np.random.default_rng(4)
    truth = rng.standard_normal((3, 20))
    fitted = rng.standard_normal((3, 20))
    e = output_error(truth, fitted)
    for i in range(3):
        num = math.sqrt(np.mean((truth[i] - fitted[i]) ** 2))
        den = math.sqrt(np.mean((truth[i] - truth[i].mean()) ** 2))
        assert e[i] == pytest.approx(100.0 * num / den, rel=1e-12)


def test_output_error_constant_truth_is_undefined():
    truth = np.vstack([np.ones(10), np.arange(10.0)])
    fitted = np.zeros((2, 10))
    with pytest.warns(UserWarning, match="constant true output"):
        e = output_error(truth, fitted)
    assert math.isnan(e[0]) and math.isfinite(e[1])


def test_output_error_input_validation():
    with pytest.raises(ValueError, match="shape mismatch"):
        output_error(np.ones((2, 5)), np.ones((2, 4)))
    with pytest.raises(ValueError, match="at least 2"):
        output_error([[1.0]], [[1.0]])


def test_poly_refit_reproduces_low_degree_polynomials():
    u = np.linspace(-2, 2, 100)
    vals = 0.3 * u**7 - u**3 + 2 * u - 5
    fit = poly_refit(u, vals)
    assert np.max(np.abs(fit(u) - vals)) < 1e-8 * np.max(np.abs(vals))


def test_poly_refit_constant_data():
    u = np.linspace(0, 1, 40)
    fit = poly_refit(u, np.full(40, 3.25))
    assert fit.coef[0] == pytest.approx(3.25, rel=1e-12)
    assert np.allclose(fit.coef[1:], 0.0, atol=1e-9)


def test_poly_refit_sin_accuracy():
    u = np.linspace(-3, 3, 100)
    fit = poly_refit(u, np.sin(u))
    assert np.max(np.abs(fit(u) - np.sin(u))) < 1e-5


def test_poly_refit_needs_eleven_distinct_points():
    with pytest.raises(ValueError, match="distinct"):
        poly_refit(np.zeros(30), np.zeros(30))
    with pytest.raises(ValueError, match="distinct"):
        poly_refit(np.arange(10.0), np.arange(10.0))


# specs


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        ExperimentSpec(kind="other", degrees=(3,), dfs=(8,))
    with pytest.raises(ValueError, match="nonempty"):
        ExperimentSpec(kind="trig", degrees=(), dfs=(8,))
    with pytest.raises(ValueError, match="runs"):
        ExperimentSpec(kind="trig", degrees=(3,), dfs=(8,), runs=0)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            ExperimentSpec(kind="trig", samples=samples)


def test_spec_factories():
    # ExperimentSpec(kind=...) is the study's full protocol
    t = ExperimentSpec(kind="trig")
    assert t.degrees == (1, 2, 3)
    assert t.dfs == (4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28)
    assert (t.lam, t.max_iter, t.rel_tol) == (0.01, 800, 1e-12)
    assert (t.runs, t.samples, t.base_seed) == (30, 100, 0)
    m = ExperimentSpec(kind="mono")
    assert m.degrees == (4,)
    assert m.dfs == (8, 10, 12, 14, 16, 18, 20)
    assert (m.lam, m.max_iter, m.rel_tol) == (0.1, 200, 1e-8)
    assert (m.runs, m.samples, m.base_seed) == (30, 100, 0)
    # each setting given replaces one value
    m = ExperimentSpec(kind="mono", runs=5, lam=0.02)
    assert (m.runs, m.lam) == (5, 0.02)
    assert (m.degrees, m.max_iter, m.rel_tol) == ((4,), 200, 1e-8)


@pytest.mark.parametrize("kind", ["trig", "mono"])
def test_protocol_is_the_documented_one(kind):
    # the study's row of README's protocol table under "Experiments"
    s = ExperimentSpec(kind=kind)
    assert s.dfs == tuple(range(s.dfs[0], s.dfs[-1] + 1, 2))
    row = (f"| {kind} | {', '.join(map(str, s.degrees))} | {s.dfs[0]}, {s.dfs[1]}, ..., "
           f"{s.dfs[-1]} | {s.lam} | {s.max_iter} | {s.rel_tol:.0e} |").replace("e-0", "e-")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"\n{row}\n" in readme.split("## Experiments")[1].split("\n## ")[0]


# persistence


def test_records_round_trip(tmp_path):
    records = [
        make_record(run_index=0, seed=5, error_j=0.123456789012345),
        make_record(run_index=1, seed=6, constrained=True,
                    errors=(0.1, 1e-14), poly_errors=(7.25, 0.5),
                    monotone=(False, False, False), iterations=200),
    ]
    path = tmp_path / "results.csv"
    write_records(records, path)
    back = read_records(path)
    assert records == back


def test_records_header_and_columns(tmp_path):
    path = tmp_path / "results.csv"
    write_records([make_record()], path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "run_index,seed,degree,df,constrained,error_j,"
        "e1,e2,poly_e1,poly_e2,mono_1,mono_2,mono_3,iterations"
    )
    assert len(lines) == 2


@pytest.mark.parametrize("system", [builtin_trig(), builtin_mono(0)], ids=["trig", "mono"])
def test_records_header_is_the_documented_one(tmp_path, system):
    # the header of a record set shaped like the study's system appears
    # verbatim in README's "File formats -> Experiment results"
    outputs, branches = system.W1.shape
    path = tmp_path / "results.csv"
    write_records([make_record(errors=(1.0,) * outputs, poly_errors=(2.0,) * outputs,
                               monotone=(True,) * branches)], path)
    header = path.read_text().splitlines()[0]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    formats = readme.split("## File formats")[1].split("\n## ")[0]
    results = formats.split("* Experiment results")[1]
    assert f"\n  {header}\n" in results
    counts = tmp_path / "counts.csv"
    write_counts({(False, 8): 1, (True, 8): 2}, counts)
    arm_rows = [line.split(",")[0] for line in counts.read_text().splitlines()]
    assert arm_rows == ["arm", "unconstrained", "constrained"]
    assert "`arm,df_<df>,…`" in results
    assert all(f"`{row}`" in results for row in arm_rows[1:])


def test_write_records_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="no records"):
        write_records([], tmp_path / "x.csv")


def test_read_records_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("run_index,seed\n")
    with pytest.raises(ValueError, match="malformed results file"):
        read_records(p)
    p.write_text("run_index,seed,degree,df,constrained,error_j,e1,poly_e1,mono_1,iterations\n0,0,three,12,false,0.1,1.0,1.0,true,5\n")
    with pytest.raises(ValueError, match="malformed results file"):
        read_records(p)


def test_monotone_counts():
    records = [
        make_record(df=8, constrained=True, monotone=(True, True, True)),
        make_record(df=8, constrained=True, monotone=(True, True, True)),
        make_record(df=8, constrained=False, monotone=(True, False, True)),
        make_record(df=10, constrained=False, monotone=(True, True, True)),
    ]
    counts = monotone_counts(records)
    assert counts == {(True, 8): 2, (False, 8): 0, (False, 10): 1}


def test_write_counts_layout(tmp_path):
    path = tmp_path / "counts.csv"
    write_counts({(True, 8): 30, (False, 8): 12, (True, 10): 30, (False, 10): 7}, path)
    lines = path.read_text().splitlines()
    assert lines == ["arm,df_8,df_10", "unconstrained,12,7", "constrained,30,30"]


def test_median_table():
    records = [
        make_record(run_index=i, errors=(float(v), 0.0))
        for i, v in enumerate([1.0, 5.0, 2.0])
    ]
    table = median_table(records, lambda r: r.errors[0])
    assert table == {(3, 12, False): 2.0}


def test_median_table_all_failed_cell_is_nan_without_warning():
    # failed runs carry nan; a cell of only failed runs has no median
    nan = float("nan")
    records = [
        make_record(run_index=0, df=8, error_j=nan),
        make_record(run_index=1, df=8, error_j=nan),
        make_record(run_index=0, df=10, error_j=nan),
        make_record(run_index=1, df=10, error_j=0.4),
        make_record(run_index=2, df=10, error_j=0.2),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = median_table(records, lambda r: r.error_j)
    assert math.isnan(table[(3, 8, False)])
    assert table[(3, 10, False)] == pytest.approx(0.3)


# sweep runners (reduced budgets: these check plumbing, not accuracy)


def test_trig_runner_smoke(tmp_path):
    spec = ExperimentSpec(
        kind="trig", degrees=(3,), dfs=(8,), runs=2, samples=60, max_iter=25, out_dir=tmp_path
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = run_experiment(spec)
    assert len(records) == 2
    assert [r.run_index for r in records] == [0, 1]
    assert all(not r.constrained for r in records)
    assert all(len(r.errors) == 2 and len(r.monotone) == 3 for r in records)
    assert all(math.isfinite(r.error_j) and r.error_j >= 0 for r in records)
    assert all(r.iterations > 0 for r in records)
    assert (tmp_path / "results.csv").exists()
    back = read_records(tmp_path / "results.csv")
    assert records == back


def test_mono_runner_smoke(tmp_path):
    spec = ExperimentSpec(kind="mono", dfs=(8,), runs=2, samples=60, max_iter=20, out_dir=tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = run_experiment(spec)
    assert len(records) == 4  # two runs, two constraint arms each
    assert [r.constrained for r in records] == [False, True, False, True]
    # paired arms share the seed, so the system and samples match
    assert records[0].seed == records[1].seed
    counts_path = tmp_path / "counts.csv"
    assert counts_path.exists()
    lines = counts_path.read_text().splitlines()
    assert lines[0] == "arm,df_8"
    # NNLS plus the fallback refit makes constrained certificates structural
    assert lines[2] == "constrained,2"


def test_trig_runner_is_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        spec = ExperimentSpec(
            kind="trig", degrees=(2,), dfs=(6,), runs=2, samples=50, max_iter=15, out_dir=out
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_experiment(spec)
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_failed_run_is_recorded_not_fatal(tmp_path):
    # 20 samples cannot support df=28: the fit raises, the sweep records nan
    spec = ExperimentSpec(kind="trig", degrees=(3,), dfs=(28,), runs=1, samples=20, out_dir=tmp_path)
    with pytest.warns(UserWarning, match="failed"):
        records = run_experiment(spec)
    assert len(records) == 1
    assert math.isnan(records[0].error_j)
    assert all(math.isnan(v) for v in records[0].errors)
    assert records[0].iterations == 0
