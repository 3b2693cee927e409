"""Run configurations, reports, experiment harness, and the CLI."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from freegeo import gibbs
from freegeo.lab import experiments as ex
from freegeo.lab.cli import main as cli_main
from freegeo.lab.config import ConfigError, RunConfig
from freegeo.lab.report import Metric, Report
from freegeo.matcore import MatrixTuple, Seed


# ---------------------------------------------------------------------------
# RunConfig


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "experiment = counterexample\n"
        "epsilon = 0.04\n"
        "k = 4\n"
        "samples = 5   # trailing comment\n"
    )
    cfg = RunConfig.from_file(cfg_file)
    assert cfg.experiment == "counterexample"
    assert cfg["epsilon"] == 0.04
    assert cfg["k"] == 4 and isinstance(cfg["k"], int)
    assert cfg["l"] == 8  # default filled in


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict("counterexample", {"nonsense": 1})


def test_config_rejects_unknown_experiment():
    with pytest.raises(ConfigError):
        RunConfig.from_dict("warp_drive", {})


def test_config_type_errors():
    with pytest.raises(ConfigError):
        RunConfig.from_dict("counterexample", {"epsilon": "abc"})


@pytest.mark.parametrize("raw, value", [("1", True), ("TRUE", True), ("Yes", True),
                                        ("0", False), ("false", False), ("NO", False)])
def test_config_bool_accepts_its_six_words(raw, value):
    assert RunConfig.from_dict("moment", {"matrix_scale": raw})["matrix_scale"] is value


@pytest.mark.parametrize("raw", ["ture", "on", "off", ""])
def test_config_bool_rejects_other_words(raw):
    with pytest.raises(ConfigError, match="matrix_scale"):
        RunConfig.from_dict("moment", {"matrix_scale": raw})


def test_config_seed_override():
    cfg = RunConfig.from_dict("qfconv", {"seed": 1}, overrides={"seed": 9})
    assert cfg["seed"] == 9


# ---------------------------------------------------------------------------
# Report plumbing


def test_report_json_and_csv_roundtrip(tmp_path):
    cfg = RunConfig.from_dict("moment", {"iterations": 6, "quantiles": 128,
                                         "grid_points": 1024})
    rep = ex.run_moment_fixed_point(cfg)
    path = rep.save(tmp_path)
    blob = json.loads(path.read_text())
    assert blob["schema_version"] == 1
    assert blob["experiment"] == "moment"
    assert blob["config"]["iterations"] == 6
    assert set(blob["metrics"]) == set(rep.metrics)
    # CSV series round-trips: recompute the monotonicity metric from the file
    csv_path = [a for a in rep.artifacts if a.endswith("iterates.csv")][0]
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    objs = [float(r["objective"]) for r in rows]
    max_drop = max((objs[i] - objs[i + 1] for i in range(len(objs) - 1)), default=0.0)
    max_drop = max(max_drop, 0.0)
    assert max_drop == pytest.approx(rep.metrics["objective_monotone"].value, abs=1e-12)


def test_report_pass_logic():
    cfg = RunConfig.from_dict("moment", {})
    rep = Report("moment", cfg)
    rep.add("good", Metric(1.0, 1.0, 0.1, True, "x"))
    assert rep.passed
    rep.add("bad", Metric(2.0, 1.0, 0.1, False, "x"))
    assert not rep.passed


def test_reports_reproducible_bit_for_bit():
    cfg = RunConfig.from_dict("counterexample", {"samples": 6, "k": 4, "l": 4, "seed": 3})
    a = ex.run_counterexample(cfg)
    b = ex.run_counterexample(cfg)
    assert json.dumps(a.to_json(), default=float) == json.dumps(b.to_json(), default=float)


def test_counterexample_rejects_more_samples_than_seed_streams(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(ex, "_counterexample_draw", no_draws)
    cfg = RunConfig.from_dict("counterexample", {"samples": 65536, "k": 4, "l": 4})
    with pytest.raises(ValueError, match="samples <= 65535"):
        ex.run_counterexample(cfg)


def test_counterexample_r_is_max_svd_norm_of_both_tuples():
    cfg = RunConfig.from_dict("counterexample", {"samples": 4, "k": 4, "l": 4})
    rep = ex.run_counterexample(cfg)
    oracle = 0.0
    for i in range(4):
        x, y, _ = ex._counterexample_draw(cfg["epsilon"], 4, 4, Seed(cfg["seed"]).derive(i))
        for mat in (*x.entries, *y.entries):
            oracle = max(oracle, np.linalg.svd(mat, compute_uv=False)[0])
    r = rep.metrics["tradeoff_inequality"].slack["R"]
    assert r == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_counterexample_decomposes_each_matrix_once_per_sample(monkeypatch):
    # the commutator's Gram, then one eigvalsh per slot of x and y's third
    # slot, which the spectral W2 reads too: 5 decompositions, no SVD
    counts = {"eigvalsh": 0}
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        counts["eigvalsh"] += int(np.prod(np.shape(a)[:-2]))
        return eigvalsh(a, *args, **kwargs)

    def no_svd(*args, **kwargs):
        raise AssertionError("ran an SVD")

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    ex.run_counterexample(RunConfig.from_dict("counterexample",
                                              {"samples": 3, "k": 2, "l": 3}))
    assert counts["eigvalsh"] == 5 * 3


def test_counterexample_checks_that_its_slots_are_hermitian(monkeypatch):
    # the eigenvalues read R and the spectral W2 only for Hermitian slots
    draw = ex._counterexample_draw

    def skewed(*args):
        x, y, controls = draw(*args)
        bad = x.entries.copy()
        bad[1, 0, 1] += 1e-3
        return MatrixTuple(bad), y, controls

    monkeypatch.setattr(ex, "_counterexample_draw", skewed)
    cfg = RunConfig.from_dict("counterexample", {"samples": 2, "k": 2, "l": 2})
    with pytest.raises(ValueError, match="Hermitian"):
        ex.run_counterexample(cfg)


def test_bound_metrics_print_slack():
    cfg = RunConfig.from_dict("counterexample", {"samples": 4, "k": 4, "l": 4})
    rep = ex.run_counterexample(cfg)
    for name, metric in rep.metrics.items():
        if metric.comparison in ("upper_bound", "lower_bound"):
            assert metric.slack, f"bound metric {name} has no printed slack"


# ---------------------------------------------------------------------------
# Experiment-level checks not covered by the acceptance suite


def test_counterexample_commutator_scaling():
    # mean commutator norm scales like sqrt(eps): log-log slope 0.5 +- 0.1
    eps_grid = [0.04, 0.01, 0.0025]
    means = []
    for eps in eps_grid:
        cfg = RunConfig.from_dict("counterexample",
                                  {"epsilon": eps, "k": 4, "l": 4, "samples": 24, "seed": 11})
        rep = ex.run_counterexample(cfg)
        means.append(rep.metrics["commutator_norm"].value)
    slope = np.polyfit(np.log(eps_grid), np.log(means), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.1)


def test_talagrand_zero_tilt_degenerate():
    cfg = RunConfig.from_dict("talagrand", {"tilt": 0.0, "n": 4, "samples": 16, "seeds": 1})
    rep = ex.run_talagrand(cfg)
    row = rep.series["seeds"][0]
    assert row["kl"] == pytest.approx(0.0, abs=1e-12)


def test_half_split_bias_matches_views_of_the_ensemble(monkeypatch):
    rng = np.random.default_rng(9)
    ens = gibbs.Ensemble(rng.normal(size=(9, 1, 3, 3)) + 1j * rng.normal(size=(9, 1, 3, 3)))
    seen = []
    w2 = ex.tp.empirical_w2
    monkeypatch.setattr(ex.tp, "empirical_w2", lambda a, b: seen.append((a, b)) or w2(a, b))
    ex._half_split_bias(ens)
    (a, b), = seen
    assert np.shares_memory(a.samples, ens.samples) and np.shares_memory(b.samples, ens.samples)
    assert np.array_equal(a.samples, ens.samples[:4]) and np.array_equal(b.samples, ens.samples[4:8])


def test_talagrand_reports_each_chains_diagnostics():
    cfg = RunConfig.from_dict("talagrand", {"n": 4, "samples": 8, "seeds": 2})
    rep = ex.run_talagrand(cfg)
    rows = rep.series["chains"]
    assert [(r["seed"], r["measure"]) for r in rows] == [
        (0, "mu"), (0, "nu"), (1, "mu"), (1, "nu")]
    assert all(r["steps"] > 0 and 0 < r["acceptance_rate"] < 1 for r in rows)


def test_cli_talagrand_writes_ti_node_chains_to_the_chains_csv(tmp_path):
    # with a quartic, each TI node chain joins the mu and nu rows with its lambda
    cfg_file = tmp_path / "tal.cfg"
    cfg_file.write_text("n = 4\nsamples = 8\nquartic = 0.5\nti_nodes = 2\nseed = 3\n")
    assert cli_main(["talagrand", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "talagrand_chains.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["seed"], r["measure"]) for r in rows] == [
        ("0", "mu"), ("0", "nu"), ("0", "ti"), ("0", "ti")]
    assert [r["lambda"] for r in rows[:2]] == ["", ""]
    assert 0 < float(rows[2]["lambda"]) < float(rows[3]["lambda"]) < 1
    assert all(int(r["steps"]) > 0 for r in rows)


def test_geodesic_degenerate_pair_excluded():
    # s = t contributes nothing; the grid parser keeps distinct points only
    cfg = RunConfig.from_dict("geodesic", {"grid": "0.3,0.7", "samples": 1500, "seed": 1})
    rep = ex.run_geodesic(cfg)
    assert all(r["s"] < r["t"] for r in rep.series["sandwich"])


def test_moment_residual_trend():
    cfg = RunConfig.from_dict("moment", {"mu": "gaussian", "t": 0.5, "iterations": 12,
                                         "quantiles": 256, "grid_points": 2048})
    rep = ex.run_moment_fixed_point(cfg)
    steps = [r["w2_step"] for r in rep.series["iterates"]]
    assert steps[-1] <= max(steps[0], 1e-6)


# sha256 of repr((iterates, {metric: value})) at the default moment config:
# the reports must reproduce bit for bit
MOMENT_GOLDEN = {
    ("delta0", 0.5): "7373dab07f6c7b0b15c698ab8ad4d4ce9e95848a21c1deb959b07070fca17046",
    ("delta0", 1.0): "e390fc7a0f34ed4cf104dcc14fe80d0f2f03deac024f9bb328dd47d6734d6c99",
    ("delta0", 2.0): "f512191a9443342bb2a1e3345ac59ca2f6e647d48fb3555826501029ecf22c86",
    ("gaussian", 1.0): "e641a83749ae47354ac1a696c877ff7bf0d73e3a1d10af33b3a2e375a1adfc95",
    ("-1.5,0,0,0.25,2", 1.0): "7768d8aef51d868b937f242db2c6d73dc24e5dbd6591ebc706fca641e3d3ace6",
}


@pytest.mark.parametrize("mu,t", sorted(MOMENT_GOLDEN))
def test_moment_golden_digest(mu, t):
    rep = ex.run_moment_fixed_point(RunConfig.from_dict("moment", {"mu": mu, "t": t}))
    metrics = {k: m.value for k, m in sorted(rep.metrics.items())}
    blob = repr((rep.series["iterates"], metrics)).encode()
    assert hashlib.sha256(blob).hexdigest() == MOMENT_GOLDEN[(mu, t)]


@pytest.mark.parametrize("kq", [1, 2, 3, 16, 64, 512, 1000, 4096])
def test_moment_quantiles_ndtri_equal_norm_ppf(kq):
    # run_moment_fixed_point takes its Gaussian quantiles from ndtri so that
    # the moment command need not import scipy.stats; the bytes, signs of
    # zero included, must be those of norm.ppf
    from scipy.special import ndtri
    from scipy.stats import norm

    levels = (np.arange(kq) + 0.5) / kq
    assert ndtri(levels).tobytes() == norm.ppf(levels).tobytes()


# sha256 of the JSON of (metrics, series) of the matrix-scale report below
MATRIX_SCALE_GOLDEN = "1f459a956e809458482831ff894eecfda91a902ad6965c8e24101b5c29063dab"


def test_moment_matrix_scale_flag():
    # envelope-gradient sampler vs the analytic tilted-Gaussian maximizer
    cfg = RunConfig.from_dict("moment", {"matrix_scale": "true", "t": 2.0,
                                         "target": 0.5, "n": 4, "count": 80,
                                         "seed": 21})
    rep = ex.run_moment_fixed_point(cfg)
    assert rep.passed
    assert rep.metrics["mean_tuple"].value == pytest.approx(-0.25, abs=0.1)
    assert rep.metrics["second_moment"].value == pytest.approx(
        2 / 2.0 + 0.25**2, rel=0.15)
    blob = json.dumps({"metrics": {k: m.to_json() for k, m in rep.metrics.items()},
                       "series": rep.series}, sort_keys=True, default=float).encode()
    assert hashlib.sha256(blob).hexdigest() == MATRIX_SCALE_GOLDEN


@pytest.mark.parametrize("key,value", [
    ("type_epsilon", 0.0), ("type_epsilon", -0.02),
    ("radius", 0.0), ("radius", -2.5), ("radius", 0.4),  # 0.4 < |target| = 0.5
    ("m", 0),
    ("target", "nan"), ("target", "inf"),
])
def test_moment_matrix_scale_rejects_bad_config_before_sampling(monkeypatch, key, value):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an invalid config")

    monkeypatch.setattr(gibbs, "sample_gibbs", no_sampling)
    cfg = RunConfig.from_dict("moment", {"matrix_scale": "true", "target": 0.5, key: value})
    with pytest.raises(ValueError, match=rf"^{key} must"):
        ex.run_moment_fixed_point(cfg)


def test_envelope_inner_solve_work_count(monkeypatch):
    # one inner sup at the default config: a value (one qf_type) at the start
    # and at each line-search trial, each projected once, and one trace_pass
    # per accepted point; no solve leaves the target here, so every trial
    # halves the step from 0.25 * type_epsilon down to 1e-13
    cfg = RunConfig.from_dict("moment", {"matrix_scale": "true"})
    n, m = cfg["n"], cfg["m"]
    pot = ex._EnvelopePotential(np.full(m, cfg["target"]), cfg["t"], cfg["type_epsilon"],
                                cfg["radius"], n, m)
    rng = np.random.default_rng(25)
    y = MatrixTuple(rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n)))
    counts = {"qf_type": 0, "trace_pass": 0, "_project_ball": 0}
    for name in counts:
        def spy(*args, name=name, real=getattr(ex.logic, name)):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(ex.logic, name, spy)
    x_star, _ = pot._solve(y)
    assert np.array_equal(x_star, np.zeros((m, n, n)))
    assert counts == {"qf_type": 37, "trace_pass": 1, "_project_ball": 37}


def test_envelope_restarts_when_the_query_size_changes():
    # the sampler's convexity spot check queries at min(n, 8), the chain at n;
    # the warm start used to keep the size of the last query, so n > 8 failed
    # with "tuple shapes differ"
    cfg = RunConfig.from_dict("moment", {"matrix_scale": "true", "target": 0.5})
    m = cfg["m"]

    def envelope():
        return ex._EnvelopePotential(np.full(m, cfg["target"]), cfg["t"],
                                     cfg["type_epsilon"], cfg["radius"], 10, m)

    rng = np.random.default_rng(26)
    small, large = (rng.normal(size=(m, k, k)) + 1j * rng.normal(size=(m, k, k))
                    for k in (8, 10))
    kernel = envelope().bind(m)
    value8, grad8 = kernel(small)
    value10, grad10 = kernel(large)
    assert grad8.shape == (m, 8, 8) and grad10.shape == (m, 10, 10)
    assert math.isfinite(value8)
    # the size-10 query restarts from a I, the start of a fresh envelope
    fresh_value, fresh_grad = envelope().bind(m)(large)
    assert value10 == fresh_value
    assert grad10.tobytes() == fresh_grad.tobytes()


@pytest.mark.parametrize("t,matrix_scale", [("nan", "false"), ("nan", "true"),
                                             ("inf", "false"), ("-1", "false")])
def test_cli_moment_rejects_a_non_finite_t(tmp_path, capsys, t, matrix_scale):
    # nan used to crash the 1-D run with an IndexError, or sample at matrix
    # scale until the acceptance collapsed; inf reported an underflow
    cfg_file = tmp_path / "moment.cfg"
    cfg_file.write_text(f"t = {t}\nmatrix_scale = {matrix_scale}\n")
    code = cli_main(["moment", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: regularization t must be finite and > 0, got {float(t)}\n")


@pytest.mark.parametrize("command, text, message", [
    ("talagrand", "seeds = 0", "seeds must be >= 1, got 0"),
    ("moment", "grid_points = 1", "grid_points must be >= 2, got 1"),
    ("geodesic", "grid = 0,0.5", "grid points must lie in (0, 1), got '0,0.5'"),
    ("geodesic", "grid = 0.5,1", "grid points must lie in (0, 1), got '0.5,1'"),
    ("counterexample", "samples = 0", "samples must be >= 1, got 0"),
    ("counterexample", "epsilon = 1.5", "epsilon must be in (0, 1], got 1.5"),
    ("counterexample", "epsilon = -0.1", "epsilon must be in (0, 1], got -0.1"),
    ("counterexample", "epsilon = 0", "epsilon must be in (0, 1], got 0.0"),
    ("qfconv", "samples = 1", "samples must be >= 2 (the spread needs two values), got 1"),
    ("qfconv", "n_ladder = ", "n_ladder must name at least one size, got ''"),
])
def test_cli_experiments_name_a_bad_key_before_sampling(tmp_path, capsys, monkeypatch,
                                                        command, text, message):
    # these used to escape main with an UnboundLocalError or IndexError, end in
    # "float division by zero", "math domain error" or "max() arg is an empty
    # sequence", or (counterexample samples = 0) exit 2 with NaN metrics
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an invalid config")

    monkeypatch.setattr(gibbs, "sample_gibbs", no_sampling)
    monkeypatch.setattr(ex, "sample_gue", no_sampling)
    cfg_file = tmp_path / f"{command}.cfg"
    cfg_file.write_text(text + "\n")
    code = cli_main([command, "--config", str(cfg_file)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command, text, message", [
    ("geodesic", "grid = 0.5", "grid must name >= 2 points, got '0.5'"),
    ("geodesic", "grid = ", "grid must name >= 2 points, got ''"),
    ("moment", "iterations = 0", "iterations must be >= 1, got 0"),
    ("moment", "quantiles = 0", "quantiles must be >= 1, got 0"),
    ("counterexample", "k = 0", "k must be >= 1, got 0"),
    ("counterexample", "l = -2", "l must be >= 1, got -2"),
    ("qfconv", "n_ladder = 8,0", "n_ladder sizes must be >= 1, got '8,0'"),
])
def test_cli_experiments_reject_an_empty_grid_loop_or_size(tmp_path, capsys, monkeypatch,
                                                           command, text, message):
    # these used to exit 0 with "pass sandwich: value=inf" (a one-point grid
    # checks no pair), exit 2 with a NaN residual (no iteration), or end in
    # "empty support", "n must be positive" or "m and n must be positive"
    # without naming the key
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an invalid config")

    monkeypatch.setattr(gibbs, "sample_gibbs", no_sampling)
    monkeypatch.setattr(ex, "sample_gue", no_sampling)
    monkeypatch.setattr(ex.Seed, "rng", no_sampling)
    cfg_file = tmp_path / f"{command}.cfg"
    cfg_file.write_text(text + "\n")
    code = cli_main([command, "--config", str(cfg_file)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_qfconv_rejects_a_quantified_formula_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the formulas")

    monkeypatch.setattr(gibbs, "sample_gibbs", no_sampling)
    cfg = RunConfig.from_dict("qfconv", {"formulas": "re tr(x1);sup{y:1.0} re tr(y*x1)",
                                         "n_ladder": "4,8"})
    with pytest.raises(ValueError, match="qfconv requires quantifier-free formulas"):
        ex.run_qf_convergence(cfg)


def test_qfconv_constant_formula_zero_std():
    cfg = RunConfig.from_dict(
        "qfconv",
        {"formulas": "re tr(x1*x1') - re tr(x1*x1')", "n_ladder": "4,8", "samples": 12},
    )
    rep = ex.run_qf_convergence(cfg)
    assert all(r["std"] == 0.0 for r in rep.series["ladder"])
    assert rep.passed
    # one row of sampler diagnostics per n
    assert [r["n"] for r in rep.series["chains"]] == [4, 8]
    assert all(r["thin"] >= 1 and r["steps"] > 0 for r in rep.series["chains"])


# ---------------------------------------------------------------------------
# CLI


def test_cli_experiment_pass_and_report(tmp_path, capsys):
    cfg_file = tmp_path / "ce.cfg"
    cfg_file.write_text("epsilon = 0.01\nk = 4\nl = 4\nsamples = 6\nseed = 2\n")
    code = cli_main(["counterexample", "--config", str(cfg_file),
                     "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert "[counterexample] PASS" in captured.out
    assert (tmp_path / "out" / "counterexample_report.json").exists()


def test_cli_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("epsilon = not_a_number\n")
    code = cli_main(["counterexample", "--config", str(bad)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_sample_eval_w2_pipeline(tmp_path, capsys):
    code = cli_main(["sample", "--out", str(tmp_path), "--seed", "5"])
    assert code == 0
    fige = tmp_path / "ensemble.fige"
    assert fige.exists()

    code = cli_main(["eval", "--formula", "re tr(x1*x1')", "--in", str(fige)])
    assert code == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["mean"] == pytest.approx(2.0, abs=0.3)  # E tr_n(XX*) = 2m/c

    code = cli_main(["w2", "--a", str(fige), "--b", str(fige)])
    assert code == 0
    blob = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert blob["w2"] == 0.0
    assert blob["cost"] == 0.0
    count = len(blob["plan"]["permutation"])
    assert blob["diagnostics"] == {"assignment_size": count}

    code = cli_main(["w2", "--a", str(fige), "--b", str(fige), "--method", "sinkhorn"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(blob) == {"w2", "cost", "method", "plan", "diagnostics"}
    diag = blob["diagnostics"]
    assert diag["assignment_size"] == count and diag["sinkhorn_iterations"] >= 1
    assert 0.0 <= diag["sinkhorn_marginal_error"] < 1e-6


def test_cli_eval_single_tuple(tmp_path, capsys):
    cli_main(["sample", "--out", str(tmp_path), "--seed", "6"])
    capsys.readouterr()
    code = cli_main(["eval", "--formula", "re tr(x1)", "--in",
                     str(tmp_path / "ensemble.fige"), "--index", "0"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "value" in blob and math.isfinite(blob["value"])


@pytest.mark.parametrize("index", [5, -1])
def test_cli_eval_index_out_of_range(tmp_path, capsys, index):
    fige = tmp_path / "two.fige"
    gibbs.save_ensemble(gibbs.Ensemble(np.zeros((2, 1, 2, 2), dtype=complex)), fige)
    code = cli_main(["eval", "--formula", "re tr(x1)", "--in", str(fige),
                     "--index", str(index)])
    assert code == 1
    assert f"error: --index {index} is out of range" in capsys.readouterr().err


def _empty_and_one_tuple_files(tmp_path):
    empty, one = tmp_path / "empty.fige", tmp_path / "one.fige"
    gibbs.save_ensemble(gibbs.Ensemble(np.zeros((0, 1, 2, 2), dtype=complex)), empty)
    gibbs.save_ensemble(gibbs.Ensemble(np.zeros((1, 1, 2, 2), dtype=complex)), one)
    return empty, one


def test_cli_eval_rejects_an_empty_ensemble(tmp_path, capsys):
    empty, _ = _empty_and_one_tuple_files(tmp_path)
    code = cli_main(["eval", "--formula", "re tr(x1)", "--in", str(empty)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"error: {empty}: the ensemble holds no tuples (count 0)\n"


def test_cli_w2_rejects_an_empty_ensemble(tmp_path, capsys):
    empty, one = _empty_and_one_tuple_files(tmp_path)
    code = cli_main(["w2", "--a", str(one), "--b", str(empty)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"error: {empty}: the ensemble holds no tuples (count 0)\n"


@pytest.mark.parametrize("argv", [["eval", "--formula", "re tr(x1)", "--in", "a.fige"],
                                  ["w2", "--a", "a.fige", "--b", "b.fige"],
                                  ["sample"], ["entropy"]])
def test_cli_format_only_on_experiments(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_cli_experiment_writes_csv_with_format(tmp_path, capsys):
    cfg_file = tmp_path / "ce.cfg"
    cfg_file.write_text("epsilon = 0.01\nk = 4\nl = 4\nsamples = 6\nseed = 2\n")
    code = cli_main(["counterexample", "--config", str(cfg_file),
                     "--out", str(tmp_path / "out"), "--format", "csv"])
    assert code == 0
    assert "report written to" in capsys.readouterr().out
    assert (tmp_path / "out" / "counterexample_metrics.csv").exists()


@pytest.mark.parametrize("formula, value", [("(re tr(x1))^-1.0", "pow(0.0, -1.0)"),
                                            ("(1e200 + re tr(x1))^2.0", "pow(1e+200, 2.0)")])
def test_cli_eval_pow_error(tmp_path, capsys, formula, value):
    fige = tmp_path / "zero.fige"
    gibbs.save_ensemble(gibbs.Ensemble(np.zeros((1, 1, 2, 2), dtype=complex)), fige)
    code = cli_main(["eval", "--formula", formula, "--in", str(fige)])
    assert code == 1
    assert f"error: {value} has no finite value" in capsys.readouterr().err


def test_cli_entropy_subcommand(tmp_path, capsys):
    cfg_file = tmp_path / "en.cfg"
    cfg_file.write_text("n = 4\nm = 1\nti_nodes = 4\nsamples_per_node = 32\nseed = 1\n")
    code = cli_main(["entropy", "--config", str(cfg_file)])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["h_n"] == pytest.approx(math.log(2 * math.pi * math.e), abs=0.15)
    # the final chain's sampler diagnostics ride along in the report
    final = blob["meta"]["final_chain"]
    assert final["steps"] > 0 and final["adapt_in_window"] in (True, False)


@pytest.mark.parametrize("command", ["sample", "entropy"])
def test_cli_rejects_a_potential_with_more_slots_than_m(tmp_path, capsys, command):
    cfg_file = tmp_path / "two_slots.cfg"
    cfg_file.write_text("potential = 0.5*re tr(x1*x1') + 0.5*re tr(x2*x2')\nm = 1\n")
    code = cli_main([command, "--config", str(cfg_file), "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "error: the potential uses 2 matrix slots but m = 1\n"


# Runs in a fresh interpreter: the test process has scipy loaded already.
IMPORT_SET_SCRIPT = """
import json, sys
import numpy as np
import freegeo, freegeo.lab.cli
from freegeo import entropy, gibbs, transport

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {"import": scipy_modules()}
rng = np.random.default_rng(0)
a, b = (gibbs.Ensemble(rng.standard_normal((2, 1, 2, 2))) for _ in range(2))
transport.empirical_w2(a, b)
stages["w2"] = scipy_modules()
entropy.knn_entropy(rng.standard_normal((200, 2)))
stages["knn"] = scipy_modules()
print(json.dumps(stages))
"""


def test_cli_import_loads_no_scipy_until_first_use():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", IMPORT_SET_SCRIPT], check=True,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    stages = json.loads(out.stdout)
    assert stages["import"] == []
    assert "scipy.optimize" in stages["w2"]
    assert "scipy.spatial" in stages["knn"]
