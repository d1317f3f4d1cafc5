import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcrep
from dcrep import cli, solver
from dcrep.cli import main
from dcrep.gaussian import (CovarianceSpec, fully_symmetric_cov, threshold_law_mc,
                            zero_threshold_law_3)
from dcrep.partitions import BinaryLaw, PartitionDistribution, color_map_csc, push_forward
from dcrep.reports import _plain
from dcrep.solver import lp_feasibility, phase_one, signed_rep_3, symmetric_rep_family_3

from conftest import edge_of_family_law, law_scales_into_the_box, plackett_law3

GAUSS3 = json.dumps({"a": [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]]})
STABLE3 = json.dumps({"alpha": 1.0,
                      "loadings": [[0.5, 0.8660254037844386, 0, 0],
                                   [0.5, 0, 0.8660254037844386, 0],
                                   [0.5, 0, 0, 0.8660254037844386]]})
# an MC law of a Gaussian triple at h = 0 that fails the strict LP and passes
# the box LP
SEED_95_SOLVE = ["solve", "--model", json.dumps({"kind": "gaussian", "a": [
    [1, 0.535, 0.849], [0.535, 1, 0.047], [0.849, 0.047, 1]]}),
    "--h", "0", "--samples", "5000", "--seed", "95"]


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def test_analyze_gaussian(tmp_path):
    code, out = run(["analyze", "--model", GAUSS3], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["schema"] == "dcrep/1"
    assert payload["results"]["large_h"]["verdict"] == "ColorRep"
    assert payload["results"]["conditions"]["dgff"] is True
    assert payload["results"]["small_h"]["verdict"] == "ColorRep"


def test_analyze_with_law(tmp_path):
    code, out = run(["analyze", "--model", GAUSS3, "--h", "0"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["lp"]["status"] == "Feasible"


def test_analyze_ab_point(tmp_path):
    model = json.dumps({"a": [[1, 0.8, 0.8], [0.8, 1, 0.3], [0.8, 0.3, 1]]})
    code, out = run(["analyze", "--model", model], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["large_h"]["verdict"] == "NoColorRep"


def test_analyze_stable(tmp_path):
    code, out = run(["analyze", "--model", STABLE3], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["order1_limits"]["q_limits"]["123"] == pytest.approx(0.5)
    assert payload["results"]["second_coordinate_integral"]["value"] == pytest.approx(0.5)


def test_analyze_a_one_coordinate_stable_model(tmp_path):
    """The second-coordinate integral needs d >= 2, so analyze leaves it out
    of a d = 1 model, as it leaves out the order-1 limits off d = 3, and
    prints the spectral measure."""
    model = json.dumps({"alpha": 1.5, "loadings": [[1.0]]})
    code, out = run(["analyze", "--model", model], tmp_path)
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert set(results) == {"spectral_measure"}
    assert results["spectral_measure"]["d"] == 1


def test_solve_explicit_law(tmp_path):
    law = zero_threshold_law_3(fully_symmetric_cov(3, 0.5))
    model = json.dumps(law.to_json_dict())
    code, out = run(["solve", "--model", model], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["lp"]["status"] == "Feasible"
    assert payload["results"]["symmetric_family"]["t_interval"] is not None


# Monte Carlo n = 3 laws: a Gaussian triple at h = 0 (flip-symmetric, of
# reflected pairs) and at h = 0.5, and an exact law given a stderr in JSON
MC_N3_SOLVES = {
    "gaussian_h0": ["--model", GAUSS3, "--h", "0", "--samples", "5000"],
    "gaussian_h05": ["--model", GAUSS3, "--h", "0.5", "--samples", "20000"],
    "json_stderr": ["--model", json.dumps({
        **zero_threshold_law_3(fully_symmetric_cov(3, 0.4)).to_json_dict(),
        "stderr": [1e-3] * 8})],
}


@pytest.mark.parametrize("argv", MC_N3_SOLVES.values(), ids=MC_N3_SOLVES)
def test_solve_decides_an_mc_n3_law_by_the_lp_alone(argv, tmp_path):
    """The closed forms are identities of exact laws: ``solve`` on an MC law
    prints the law and the box LP's verdict only."""
    code, out = run(["solve"] + argv, tmp_path)
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert set(results) == {"law", "lp"}
    law = BinaryLaw.from_json_dict(results["law"])
    assert law.stderr is not None
    assert results["lp"] == _plain(lp_feasibility(law))


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_solve_keeps_the_closed_form_of_an_exact_n3_law(p, tmp_path):
    """An exact color process at n = 3: the signed representation at p != 1/2
    and the t-family at p = 1/2, beside the LP's Feasible."""
    q = PartitionDistribution.from_vector(3, np.random.default_rng(3).dirichlet(np.ones(5)))
    law = push_forward(q, p)
    code, out = run(["solve", "--model", json.dumps(law.to_json_dict())], tmp_path)
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["lp"]["status"] == "Feasible"
    if p == 0.5:
        assert set(results) == {"law", "symmetric_family", "lp"}
        fam = symmetric_rep_family_3(law)
        assert results["symmetric_family"] == _plain({"t_interval": fam.t_interval,
                                                      "canonical": fam.canonical()})
    else:
        assert set(results) == {"law", "signed_rep_3", "lp"}
        rep = signed_rep_3(law)
        assert rep.feasible
        assert results["signed_rep_3"] == {"weights": rep.weights, "feasible": True}


def test_samples_ask_for_the_mc_law_where_an_exact_law_is_known(tmp_path):
    """The n = 3 Gaussian at h = 0 has an exact law: ``solve`` gives its cells
    without --samples, and with --samples the Monte Carlo law of the seed,
    which carries stderr.  ``analyze`` decides the same law."""
    cov = CovarianceSpec(json.loads(GAUSS3)["a"])
    code, out = run(["solve", "--model", GAUSS3], tmp_path, "exact.json")
    assert code == 0
    assert json.loads(out.read_text())["results"]["law"] == zero_threshold_law_3(cov).to_json_dict()
    mc_law = threshold_law_mc(cov, 0.0, 1000, 3)
    code, out = run(["solve", "--model", GAUSS3, "--samples", "1000", "--seed", "3"],
                    tmp_path, "mc.json")
    assert code == 0
    law = json.loads(out.read_text())["results"]["law"]
    assert law == mc_law.to_json_dict()
    assert len(law["stderr"]) == 8
    code, out = run(["analyze", "--model", GAUSS3, "--h", "0", "--samples", "1000",
                     "--seed", "3"], tmp_path, "analyze.json")
    assert code == 0
    assert json.loads(out.read_text())["results"]["lp"] == _plain(lp_feasibility(mc_law))


def test_byte_identical_reruns(tmp_path):
    _, out1 = run(["analyze", "--model", GAUSS3, "--seed", "5"], tmp_path, "a.json")
    _, out2 = run(["analyze", "--model", GAUSS3, "--seed", "5"], tmp_path, "b.json")
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_ab(tmp_path):
    out = tmp_path / "ab.csv"
    code = main(["scan", "--scan", "ab", "--a-step", "0.1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# {")
    header = lines[1].split(",")
    for col in ("a", "b", "pd", "dgff", "large_h_color", "markov_boundary",
                "small_h_feasible"):
        assert col in header
    assert len(lines) == 2 + 9 * 9


def test_scan_theta(tmp_path):
    out = tmp_path / "theta.csv"
    code = main(["scan", "--scan", "theta", "--a-step", str(math.pi / 16),
                 "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    header = out.read_text().splitlines()[1].split(",")
    th_col = header.index("theta")
    feas_col = header.index("feasible")
    for row in rows:
        theta = float(row[th_col])
        assert (row[feas_col] == "1") == (theta <= math.pi / 4 + 1e-12)


def test_scan_alpha_flips_at_half(tmp_path):
    out = tmp_path / "alpha.csv"
    code = main(["scan", "--scan", "alpha", "--a-step", "0.05", "--a", "0.5",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    al_col, color_col = header.index("alpha"), header.index("large_h_color")
    for row in lines[2:]:
        cells = row.split(",")
        alpha = float(cells[al_col])
        if abs(alpha - 0.5) < 0.011:
            continue
        assert (cells[color_col] == "1") == (alpha > 0.5), row


@pytest.mark.parametrize("scan, step", [("ab", "1e-7"), ("ab", "0.0009"), ("theta", "1e-7"),
                                        ("alpha", "1e-7"), ("alpha", "1e-320")])
def test_scan_refuses_a_grid_over_the_row_limit(scan, step, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--scan", scan, "--a-step", step, "--out", str(out)]) == 2
    assert f"more than {cli.SCAN_MAX_ROWS} rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scan, fits, refused", [
    ("ab", 0.1, 0.09),                                    # 9^2 = 81 rows; 11^2 = 121
    ("theta", math.pi / 200, math.pi / 205),              # 99 rows; 102
    ("alpha", 0.02, 0.0198),                              # 99 rows; 101
])
def test_scan_row_limit_counts_the_rows_exactly(scan, fits, refused, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SCAN_MAX_ROWS", 100)
    code, out = run(["scan", "--scan", scan, "--a-step", str(fits)], tmp_path)
    assert code == 0
    assert len(out.read_text().splitlines()) - 2 <= 100
    assert main(["scan", "--scan", scan, "--a-step", str(refused)]) == 2


@pytest.mark.parametrize("scan, step, stop, rows", [
    ("ab", 1 / 3, 1.0, 2 ** 2), ("ab", 1 / 7, 1.0, 6 ** 2), ("ab", 1 / 19, 1.0, 18 ** 2),
    ("ab", 1 / 27, 1.0, 26 ** 2), ("ab", 1 / 63, 1.0, 62 ** 2),
    ("alpha", 2 / 3, 2.0, 2), ("theta", math.pi / 6, math.pi / 2, 2)])
def test_scan_axis_stops_below_its_stop(scan, step, stop, rows, tmp_path):
    """Steps for which ``np.arange(step, stop, step)`` rounds its last value
    up to ``stop`` itself: the axis drops it."""
    code, out = run(["scan", "--scan", scan, "--a-step", repr(step)], tmp_path, "scan.csv")
    assert code == 0
    lines = out.read_text().splitlines()[2:]
    assert len(lines) == rows
    axes = 2 if scan == "ab" else 1
    assert all(float(v) < stop for line in lines for v in line.split(",")[:axes])


def test_simulate_ou(tmp_path):
    code, out = run(["simulate", "--simulator", "ou", "--a", "0.5", "--n", "3",
                     "--samples", "20000", "--seed", "3"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["verification"]["passed"] is True


def test_simulate_color_from_solved_law(tmp_path):
    law = zero_threshold_law_3(fully_symmetric_cov(3, 0.4))
    code, out = run(["simulate", "--simulator", "color",
                     "--model", json.dumps(law.to_json_dict()),
                     "--samples", "50000", "--seed", "4"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["within_4se"] is True


def test_simulate_color_from_an_mc_law_that_passes_the_box_lp(tmp_path):
    """An MC law is never Feasible, but one that passes the box LP still
    has the q that the color process is drawn from."""
    law = zero_threshold_law_3(fully_symmetric_cov(3, 0.4)).to_json_dict()
    law["stderr"] = [1e-3] * 8
    code, out = run(["simulate", "--simulator", "color", "--model", json.dumps(law),
                     "--samples", "50000", "--seed", "4"], tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["results"]["within_4se"] is True


def test_simulate_color_from_an_mc_law_that_passes_only_the_box_lp(tmp_path):
    """The law that ``solve`` writes for the seed-95 triple fails the strict
    LP, so the color process is drawn from the box LP's q.  That q's law
    misses the input law by up to a half-width, so ``within_4se`` compares
    the draws with the law they are drawn from, and ``max_abs_dev`` reads
    the distance to the input law: that q's law scales into the box, so the
    draws stay within it and 4 standard errors."""
    code, out = run(SEED_95_SOLVE, tmp_path)
    assert code == 0
    law = json.loads(out.read_text())["results"]["law"]
    nu = BinaryLaw.from_json_dict(law)
    assert phase_one(color_map_csc(3, nu.marginal_p), nu.probs).objective > solver.FEAS_TOL
    drawn = push_forward(lp_feasibility(nu).q, nu.marginal_p).probs
    assert law_scales_into_the_box(drawn, nu)
    m = 50000
    code, out = run(["simulate", "--simulator", "color", "--model", json.dumps(law),
                     "--samples", str(m), "--seed", "4"], tmp_path, "sim.json")
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["within_4se"] is True
    se = np.sqrt(np.maximum(drawn * (1 - drawn), 1.0 / m) / m)
    assert results["max_abs_dev"] <= np.max(np.abs(drawn - nu.probs) + 4.0 * se)
    assert results["max_abs_dev"] <= np.max(nu.halfwidth) + 4.0 * np.sqrt(0.25 / m)


SIMULATE_REFUSED = {
    "infeasible": (BinaryLaw(2, np.array([0.2, 0.3, 0.3, 0.2])), "Infeasible"),
    "borderline": (plackett_law3((0.0, 0.5, 0.5), 5), "Borderline"),
}


@pytest.mark.parametrize("law, status", SIMULATE_REFUSED.values(), ids=SIMULATE_REFUSED)
def test_simulate_color_names_the_lp_status_of_a_law_it_does_not_draw(law, status, tmp_path,
                                                                       capsys):
    """An exact law is drawn from only where the LP reads it Feasible; any
    other exits 2, and the error names the LP's status, since a Borderline
    law is not shown to lack a representation."""
    assert lp_feasibility(law).status == status
    code, out = run(["simulate", "--simulator", "color",
                     "--model", json.dumps(law.to_json_dict())], tmp_path)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == (f"error: lp_feasibility reads the law {status}; "
                                       "nothing to simulate\n")


def test_asymptotics_gaussian(tmp_path):
    code, out = run(["asymptotics", "--model", GAUSS3], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["small_h"]["limits"]["123"] > 0


def test_asymptotics_stable(tmp_path):
    code, out = run(["asymptotics", "--model", STABLE3], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["phase_transition_alpha"] == pytest.approx(0.5, abs=1e-6)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": "dcrep/1", "model": GAUSS3, "seed": 9}))
    code, out = run(["analyze", "--config", str(cfg)], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["seed"] == 9


def test_usage_errors_exit_2(capsys):
    assert main(["analyze", "--model", "{not json"]) == 2
    assert main(["analyze", "--model", '{"x": 1}']) == 2
    assert main(["asymptotics", "--model",
                 json.dumps({"n": 1, "entries": [{"key": "0", "p": 0.5},
                                                 {"key": "1", "p": 0.5}]})]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("a12, message", [
    (2, "error: correlations must lie in [-1, 1]"),
    (1, "error: a_ij = 1 on a unit-diagonal matrix: coordinates i and j would be a.s. equal"),
])
def test_analyze_names_why_a_correlation_is_refused(a12, message, capsys):
    assert main(["analyze", "--model", json.dumps({"a": [[1, a12], [a12, 1]]})]) == 2
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize("command", ["analyze", "solve", "asymptotics"])
def test_a_command_without_a_model_is_a_usage_error(command, tmp_path, capsys):
    """No --model, bare or from a config file that has none, exits 2 with a
    message naming the flag, not a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": "dcrep/1"}))
    for argv in ([command], [command, "--config", str(cfg)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--model" in err, err


@pytest.mark.parametrize("argv", [
    ["solve", "--model", GAUSS3],
    ["scan", "--scan", "theta"],
    ["simulate", "--simulator", "ou", "--samples", "100", "--format", "csv"],
], ids=["json", "scan-csv", "simulate-csv"])
def test_an_output_file_that_cannot_be_opened_is_a_usage_error(argv, tmp_path, capsys):
    """An ``--out`` in a missing directory, or naming a directory, exits 2
    with the path in the message, from each writer, and leaves no file."""
    for out in (tmp_path / "missing" / "x.out", tmp_path):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output file {str(out)!r}: "), err
    assert not (tmp_path / "missing").exists()


def test_bad_covariance_exit_2(capsys):
    model = json.dumps({"a": [[1.0, 1.0], [1.0, 1.0]]})
    assert main(["analyze", "--model", model]) == 2
    capsys.readouterr()


def test_simulate_csv_sample_stream(tmp_path):
    out = tmp_path / "samples.csv"
    code = main(["simulate", "--simulator", "ou", "--a", "0.5", "--n", "3",
                 "--samples", "50", "--seed", "7", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    assert header[:4] == ["sign_1", "sign_2", "sign_3", "partition"]
    assert len(lines) == 2 + 50
    row = lines[2].split(",")
    assert row[0] in ("-1", "1")
    assert "|" in row[3] or row[3] == "123"


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "a": 0.3}))
    base = ["simulate", "--simulator", "ou", "--samples", "10000", "--config", str(cfg)]
    code, out = run(base + ["--seed", "0"], tmp_path, "a.json")
    assert code == 0
    config = json.loads(out.read_text())["config"]
    assert (config["seed"], config["a"]) == (0, 0.3)
    code, out = run(base + ["--a", "0.7"], tmp_path, "b.json")
    assert code == 0
    config = json.loads(out.read_text())["config"]
    assert (config["seed"], config["a"]) == (5, 0.7)


@pytest.mark.parametrize("config", [{"seed": "5"}, {"a": "x"}, {"format": "xml"},
                                    {"seed": True}, {"samples": 1.5}])
def test_config_values_are_typed(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _ = run(["simulate", "--simulator", "ou", "--samples", "10000",
                   "--config", str(cfg)], tmp_path)
    assert code == 2
    assert "config" in capsys.readouterr().err


def test_config_values_of_the_flag_type_apply(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "a": 1, "format": "json"}))
    code, out = run(["simulate", "--simulator", "ou", "--a", "0.4", "--samples", "10000",
                     "--config", str(cfg)], tmp_path)
    assert code == 0
    config = json.loads(out.read_text())["config"]
    assert (config["seed"], config["a"], config["format"]) == (5, 0.4, "json")


def reference_row_key(labels_row):
    """A row's partition key, block by block from its labels."""
    return "|".join("".join(str(j + 1) for j in np.flatnonzero(labels_row == b))
                    for b in range(labels_row.max() + 1))


def reference_emit_sample_csv(args, batch):
    """The sample CSV built row by row, one partition key per row."""
    header = (["sign_" + str(i + 1) for i in range(batch.n)] + ["partition"]
              + ["crossing_p_" + str(i + 1) for i in range(batch.crossing_probs.shape[1])])
    rows = [[int(v) for v in batch.signs[i]] + [reference_row_key(batch.labels[i])]
            + [float(c) for c in batch.crossing_probs[i]] for i in range(batch.m)]
    cli._emit_csv(args, header, list(zip(*rows)))


@pytest.mark.parametrize("argv", [
    ["--simulator", "ou", "--a", "0.5", "--n", "4", "--samples", "2000", "--seed", "3"],
    ["--simulator", "stable-chain", "--alpha", "0.8", "--a", "0.5", "--n", "5",
     "--samples", "2000", "--seed", "4"],
])
def test_sample_csv_matches_per_row_path(tmp_path, monkeypatch, argv):
    argv = ["simulate"] + argv + ["--format", "csv"]
    code, out = run(argv, tmp_path, "codes.csv")
    assert code == 0
    monkeypatch.setattr(cli, "_emit_sample_csv", reference_emit_sample_csv)
    code, ref = run(argv, tmp_path, "rows.csv")
    assert code == 0
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("a", ["0", "1", "1.5", "nan", "inf"])
def test_scan_alpha_refuses_an_a_outside_0_1(a, tmp_path, capsys):
    out = tmp_path / "alpha.csv"
    assert main(["scan", "--scan", "alpha", "--a", a, "--out", str(out)]) == 2
    assert "a must lie in (0,1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["analyze", "--h", "0"], ["solve"]], ids=["analyze", "solve"])
def test_an_echoed_config_that_holds_tol_exits_2(argv, tmp_path, capsys):
    """The LP has no tolerance knob: a config echoed before it went, with
    its "tol" key, is refused by name, and writes nothing."""
    model = json.dumps({"a": [[1, .5, .3], [.5, 1, .2], [.3, .2, 1]]})
    code, out = run(argv + ["--model", model], tmp_path)
    assert code == 0
    config = json.loads(out.read_text())["config"]
    assert json.loads(out.read_text())["results"]["lp"]["status"] == "Feasible"
    assert "tol" not in config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "tol": 1e-9}))
    code, out = run([argv[0], "--config", str(cfg)], tmp_path, "again.json")
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "config key 'tol' names no flag" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "solve"])
def test_a_config_that_holds_p_exits_2(command, tmp_path, capsys):
    """The LP reads p from the law's own marginals: a config with "p" is
    refused by name, and writes nothing."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": "dcrep/1", "model": GAUSS3, "h": 0.0, "p": 0.5}))
    code, out = run([command, "--config", str(cfg)], tmp_path)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "config key 'p' names no flag" in err and "Traceback" not in err


@pytest.mark.parametrize("h", ["nan", "inf"])
def test_solve_refuses_a_non_finite_h_before_sampling(h, tmp_path, capsys, monkeypatch):
    def no_draws(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(dcrep.partitions, "_count_blocks", no_draws)
    model = json.dumps({"a": [[1, .5], [.5, 1]]})
    code, out = run(["solve", "--model", model, "--h", h, "--samples", "1000"], tmp_path)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err == f"error: h must be finite, got {float(h)!r}\n"


@pytest.mark.parametrize("args", [
    ["simulate", "--simulator", "ou", "--n", "0"],
    ["simulate", "--simulator", "stable-chain", "--n", "0"],
    ["simulate", "--simulator", "ou", "--samples", "0"],
    ["scan", "--scan", "ab", "--a-step", "0"],
    ["scan", "--scan", "theta", "--a-step", "0"],
    ["scan", "--scan", "alpha", "--a-step", "-0.1"],
    ["scan", "--scan", "ab", "--a-step", "-0.1"],
])
def test_zero_or_negative_values_are_not_replaced_by_defaults(args, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("entries,n", [
    ([{"key": "111", "p": 1.0}], 2),
    ([{"key": "0", "p": 0.5}, {"key": "11", "p": 0.5}], 2),    # read as "00"
    ([{"key": "00", "p": 0.5}, {"key": "-1", "p": 0.5}], 2),   # read as "11"
    ([{"key": "11", "p": 0.5}, {"key": "11", "p": 0.5}, {"key": "00", "p": 0.5}], 2),
    ([], 36),
], ids=["long_key", "short_key", "minus_key", "repeated_key", "n36"])
def test_solve_refuses_bad_law_keys(entries, n, tmp_path, capsys):
    model = json.dumps({"n": n, "entries": entries})
    code, out = run(["solve", "--model", model], tmp_path)
    assert code == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


MALFORMED_LAWS = {
    "entries_number": {"n": 2, "entries": 5},
    "entry_number": {"n": 2, "entries": [1]},
    "entries_object": {"n": 2, "entries": {"00": 0.5, "11": 0.5}},
    "entry_without_key": {"n": 2, "entries": [{"p": 1.0}]},
    "entry_value_string": {"n": 2, "entries": [{"key": "00", "p": "1"}]},
    "entry_value_bool": {"n": 2, "entries": [{"key": "00", "p": True}]},
    "entry_value_null": {"n": 2, "entries": [{"key": "00", "p": None}]},
    "n_float": {"n": 2.7, "entries": [{"key": "00", "p": 1.0}]},
    "n_whole_float": {"n": 2.0, "entries": [{"key": "00", "p": 1.0}]},
    "n_bool": {"n": True, "entries": [{"key": "0", "p": 1.0}]},
    "n_string": {"n": "2", "entries": [{"key": "00", "p": 1.0}]},
    "n_null": {"n": None, "entries": []},
    "entries_missing": {"kind": "law", "n": 2},
    "stderr_string": {"n": 2, "entries": [{"key": "00", "p": 0.5}, {"key": "11", "p": 0.5}],
                      "stderr": "small"},
}


@pytest.mark.parametrize("model", MALFORMED_LAWS.values(), ids=MALFORMED_LAWS)
def test_solve_refuses_malformed_law_json(model, tmp_path, capsys):
    """A law of the wrong shape is a usage error (exit 2), not a traceback."""
    code, out = run(["solve", "--model", json.dumps(model)], tmp_path)
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("model, named", [
    ('{"n": 1, "entries": [{"key": "0", "p": NaN}, {"key": "1", "p": 1}]}',
     "{'key': '0', 'p': nan}"),
    ('{"n": 1, "entries": [{"key": "0", "p": Infinity}]}', "{'key': '0', 'p': inf}"),
    ('{"n": 1, "entries": [{"key": "0", "p": 1}], "stderr": [NaN, 0]}', "[nan, 0]"),
    ('{"n": 1, "entries": [{"key": "0", "p": 1}], "stderr": [0, -Infinity]}', "[0, -inf]"),
], ids=["p_nan", "p_inf", "stderr_nan", "stderr_minus_inf"])
def test_solve_refuses_a_non_finite_number_naming_it(model, named, tmp_path, capsys):
    code, out = run(["solve", "--model", model], tmp_path)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_solve_shows_the_family_of_a_law_at_its_edge(tmp_path):
    """A {0,1}-symmetric law whose t-interval is empty by less than FEAS_TOL
    (t_lo - t_hi = 8e-11) keeps its ``symmetric_family``: the canonical q is
    signed, and ``solve`` shows it rather than dropping the key."""
    model = json.dumps(edge_of_family_law().to_json_dict())
    code, out = run(["solve", "--model", model], tmp_path)
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert results["lp"]["status"] == "Feasible"
    family = results["symmetric_family"]
    t_lo, t_hi = family["t_interval"]
    assert 0.0 < t_lo - t_hi < solver.FEAS_TOL
    weights = family["canonical"]["weights"]
    assert weights["1|2|3"] == pytest.approx(2 * t_lo, rel=1e-15)
    assert min(weights.values()) == pytest.approx(-8e-11, rel=1e-6)


def test_solve_marks_a_signed_canonical_and_only_it(tmp_path):
    """The JSON of a signed q says so, ``{"signed": true, "weights": {...}}``;
    an unsigned q, such as the LP's, stays its bare {key: weight} map."""
    model = json.dumps(edge_of_family_law().to_json_dict())
    code, out = run(["solve", "--model", model], tmp_path)
    assert code == 0
    results = json.loads(out.read_text())["results"]
    canonical = results["symmetric_family"]["canonical"]
    assert canonical["signed"] is True
    assert set(canonical) == {"signed", "weights"}
    assert min(canonical["weights"].values()) < 0.0
    q = results["lp"]["q"]
    assert "signed" not in q and min(q.values()) >= 0.0
    assert set(q) == set(canonical["weights"])


def test_solve_refuses_negative_stderr(tmp_path, capsys):
    entries = [{"key": k, "p": 0.25} for k in ("00", "01", "10", "11")]
    model = json.dumps({"n": 2, "entries": entries, "stderr": [-1, 0, 0, 0]})
    code, _ = run(["solve", "--model", model], tmp_path)
    assert code == 2
    assert "stderr" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"a"', "null"])
def test_non_object_model_or_config_exits_2(text, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, _ = run(["solve", "--model", str(path)], tmp_path)
    assert code == 2
    assert "JSON object" in capsys.readouterr().err
    code, _ = run(["simulate", "--simulator", "ou", "--config", str(path)], tmp_path)
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


# A base argv per subcommand that runs, and the flags the subcommand does not
# read: each such flag is refused by argparse instead of being echoed unread.
BASE_ARGV = {
    "analyze": ["analyze", "--model", GAUSS3],
    "solve": ["solve", "--model", GAUSS3],
    "scan": ["scan", "--scan", "theta", "--a-step", "0.5"],
    "simulate": ["simulate", "--simulator", "ou", "--samples", "10000"],
    "asymptotics": ["asymptotics", "--model", STABLE3],
}
UNREAD_FLAGS = {
    "analyze": ["p", "tol", "format"],
    "solve": ["p", "tol", "format"],
    "scan": ["model", "h", "p", "samples", "seed", "tol", "format"],
    "simulate": ["h", "p", "tol"],
    "asymptotics": ["h", "p", "samples", "seed", "tol", "format"],
}
FLAG_VALUES = {"model": GAUSS3, "h": "0.5", "p": "0.5", "samples": "10000", "seed": "3",
               "tol": "1e-9", "format": "csv"}
UNREAD_PAIRS = [(c, f) for c, flags in UNREAD_FLAGS.items() for f in flags]


@pytest.mark.parametrize("command,flag", UNREAD_PAIRS, ids=[f"{c}--{f}" for c, f in UNREAD_PAIRS])
def test_a_flag_the_command_does_not_read_exits_2(command, flag, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(BASE_ARGV[command] + [f"--{flag}", FLAG_VALUES[flag], "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
    assert not out.exists()


def test_config_echo_holds_only_what_the_command_read(tmp_path):
    law = json.dumps(zero_threshold_law_3(fully_symmetric_cov(3, 0.4)).to_json_dict())
    cases = [
        (BASE_ARGV["analyze"], {"model", "seed"}),
        (BASE_ARGV["solve"], {"model", "h", "seed"}),
        (BASE_ARGV["asymptotics"], {"model"}),
        (BASE_ARGV["simulate"], {"simulator", "samples", "seed", "format", "a", "n"}),
        (["simulate", "--simulator", "stable-chain", "--samples", "10000"],
         {"simulator", "samples", "seed", "format", "a", "alpha", "n"}),
        (["simulate", "--simulator", "color", "--model", law, "--samples", "10000"],
         {"simulator", "model", "samples", "seed", "format"}),
    ]
    for argv, read in cases:
        code, out = run(argv, tmp_path)
        assert code == 0
        config = json.loads(out.read_text())["config"]
        assert set(config) == {"schema", "command"} | read, argv
    code, out = run(BASE_ARGV["scan"], tmp_path, "scan.csv")
    assert code == 0
    config = json.loads(out.read_text().splitlines()[0][2:])
    assert set(config) == {"schema", "command", "scan", "a_step"}


def test_one_config_file_serves_scan_with_keys_it_does_not_read(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": "dcrep/1", "seed": 3, "format": "csv",
                               "a_step": 0.5}))
    code, out = run(["scan", "--scan", "theta", "--config", str(cfg)], tmp_path, "scan.csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert json.loads(lines[0][2:]) == {"schema": "dcrep/1", "command": "scan",
                                        "scan": "theta", "a_step": 0.5}
    assert len(lines) == 2 + 3     # theta = 0.5, 1.0 and 1.5: the a_step of the file



COLOR_LAW = json.dumps(zero_threshold_law_3(fully_symmetric_cov(3, 0.4)).to_json_dict())
KIND_ARGV = {
    "color": ["simulate", "--simulator", "color", "--model", COLOR_LAW, "--samples", "10000"],
    "ou": ["simulate", "--simulator", "ou", "--samples", "10000"],
    "ab": ["scan", "--scan", "ab", "--a-step", "0.5"],
    "theta": ["scan", "--scan", "theta", "--a-step", "0.5"],
}
UNREAD_KIND_FLAGS = [("color", "a", "0.3"), ("color", "alpha", "2"), ("color", "n", "5"),
                     ("ou", "model", COLOR_LAW), ("ou", "alpha", "2"),
                     ("ab", "a", "0.3"), ("theta", "a", "0.3")]


@pytest.mark.parametrize("kind,flag,value", UNREAD_KIND_FLAGS,
                         ids=[f"{k}--{f}" for k, f, _ in UNREAD_KIND_FLAGS])
def test_a_flag_the_kind_does_not_read_exits_2(kind, flag, value, tmp_path, capsys):
    code, out = run(KIND_ARGV[kind] + [f"--{flag}", value], tmp_path)
    assert code == 2
    assert f"{kind} does not read --{flag}" in capsys.readouterr().err
    assert not out.exists()


def test_a_config_key_that_names_no_flag_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sede": 5, "samples": 10000}))
    code, out = run(["simulate", "--simulator", "ou", "--config", str(cfg)], tmp_path)
    assert code == 2
    assert "'sede'" in capsys.readouterr().err
    assert not out.exists()


def test_a_config_key_of_another_kind_is_skipped(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 0.3, "alpha": 2.0, "n": 5, "h": 0.5, "seed": 4}))
    code, out = run(KIND_ARGV["color"] + ["--config", str(cfg)], tmp_path)
    assert code == 0
    config = json.loads(out.read_text())["config"]
    assert set(config) == {"schema", "command", "simulator", "model", "samples", "seed",
                           "format"}
    assert config["seed"] == 4


def test_scan_alpha_echoes_the_default_a(tmp_path):
    code, out = run(["scan", "--scan", "alpha", "--a-step", "0.5"], tmp_path, "scan.csv")
    assert code == 0
    config = json.loads(out.read_text().splitlines()[0][2:])
    assert config == {"schema": "dcrep/1", "command": "scan", "scan": "alpha",
                      "a_step": 0.5, "a": 0.5}

def test_every_default_is_a_value_its_flag_takes():
    """Each default of the command table passes the check a config value of
    its flag gets: the right JSON type, and one of the flag's choices."""
    for command, spec in cli._COMMANDS.items():
        settings = cli._parser_flags(command)
        for reads in spec.kinds.values():
            for flag, default in reads.items():
                if default is not None:
                    assert cli._config_value(settings[flag], flag, default) == default


# One run per (command, kind) of the command table, each with some flags given
RERUN_ARGV = {
    ("analyze", None): ["analyze", "--model", GAUSS3, "--h", "0.5", "--samples", "2000",
                        "--seed", "3"],
    ("solve", None): ["solve", "--model", GAUSS3, "--h", "0.5", "--samples", "2000"],
    ("scan", "ab"): ["scan", "--scan", "ab", "--a-step", "0.2"],
    ("scan", "theta"): ["scan", "--scan", "theta", "--a-step", "0.5"],
    ("scan", "alpha"): ["scan", "--scan", "alpha", "--a-step", "0.5", "--a", "0.3"],
    ("simulate", "color"): ["simulate", "--simulator", "color", "--model", COLOR_LAW,
                            "--samples", "10000", "--seed", "2"],
    ("simulate", "ou"): ["simulate", "--simulator", "ou", "--samples", "10000", "--a", "0.3"],
    ("simulate", "stable-chain"): ["simulate", "--simulator", "stable-chain", "--samples", "50",
                                   "--alpha", "1.5", "--format", "csv"],
    ("asymptotics", None): ["asymptotics", "--model", STABLE3],
}


def test_the_rerun_cases_cover_every_command_and_kind():
    assert set(RERUN_ARGV) == {(command, kind) for command, spec in cli._COMMANDS.items()
                               for kind in spec.kinds}


@pytest.mark.parametrize("command,kind", RERUN_ARGV, ids=[f"{c}-{k}" for c, k in RERUN_ARGV])
def test_a_rerun_from_the_echoed_config_is_byte_identical(command, kind, tmp_path):
    """The echoed config, written to a file, reruns the command to the same
    bytes: ``<command> [--<kind flag> <kind>] --config <file>``."""
    code, first = run(RERUN_ARGV[command, kind], tmp_path, "first")
    assert code == 0
    text = first.read_text()
    if text.startswith("# "):       # CSV: the config is its first line
        config = json.loads(text[2:text.index("\n")])
    else:
        config = json.loads(text)["config"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    kind_flag = cli._COMMANDS[command].kind_flag
    argv = [command] + ([f"--{kind_flag}", kind] if kind_flag else []) + ["--config", str(cfg)]
    code, second = run(argv, tmp_path, "second")
    assert code == 0
    assert second.read_bytes() == first.read_bytes()


def test_the_cached_parser_carries_nothing_from_one_command_to_the_next(tmp_path):
    """One parser serves every command of a process: the rerun commands give
    the bytes of their first run in reverse order too, after a command that
    reads its flags from a config file."""
    assert cli.build_parser() is cli.build_parser()
    cases = list(RERUN_ARGV)
    first = {}
    for i, case in enumerate(cases):
        code, out = run(RERUN_ARGV[case], tmp_path, f"first-{i}")
        assert code == 0
        first[case] = out.read_bytes()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": "dcrep/1", "model": GAUSS3, "h": 0.3,
                               "samples": 500, "seed": 7}))
    for order in (cases[::-1], cases):
        code, _ = run(["analyze", "--config", str(cfg)], tmp_path, "config.json")
        assert code == 0
        for i, case in enumerate(order):
            code, out = run(RERUN_ARGV[case], tmp_path, f"again-{i}")
            assert code == 0
            assert out.read_bytes() == first[case], case


def test_defaults_are_echoed_and_read(tmp_path):
    code, out = run(["simulate", "--simulator", "ou"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert (payload["config"]["samples"], payload["config"]["n"]) == (100_000, 3)
    assert payload["results"]["sign_law"]["n"] == 3
    code, out = run(["scan", "--scan", "theta"], tmp_path, "scan.csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert json.loads(lines[0][2:])["a_step"] == math.pi / 80
    assert len(lines) == 2 + 39
    code, out = run(["solve", "--model", GAUSS3], tmp_path)
    assert code == 0
    config = json.loads(out.read_text())["config"]
    assert config["h"] == 0.0 and "tol" not in config


def test_analyze_reads_an_absent_h_or_samples_as_no_lp(tmp_path):
    code, out = run(["analyze", "--model", GAUSS3], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert "lp" not in payload["results"]
    assert "h" not in payload["config"] and "samples" not in payload["config"]


@pytest.mark.parametrize("argv", [["scan", "--scan", "theta"], ["asymptotics", "--model", STABLE3]])
def test_a_closed_stdout_ends_quietly(argv):
    """As after ``dcrep scan --scan theta | head -1``: the reader is gone, and
    the command exits 1 with nothing on stderr, no traceback."""
    read, write = os.pipe()
    os.close(read)
    src = Path(dcrep.__file__).resolve().parents[1]
    try:
        proc = subprocess.run([sys.executable, "-m", "dcrep.cli"] + argv, stdout=write,
                              stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=300)
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_simulate_color_refuses_csv(tmp_path, capsys):
    law = json.dumps(zero_threshold_law_3(fully_symmetric_cov(3, 0.4)).to_json_dict())
    code, out = run(["simulate", "--simulator", "color", "--model", law,
                     "--samples", "10000", "--format", "csv"], tmp_path)
    assert code == 2
    assert not out.exists()
    assert "--format csv" in capsys.readouterr().err


MALFORMED_MODELS = {
    "stable_alpha_list": ({"alpha": [1], "loadings": [[1]]}, "alpha"),
    "stable_alpha_null": ({"alpha": None, "loadings": [[1, 0]]}, "alpha"),
    "gaussian_a_object": ({"a": {"x": 1}}, "a"),
    "stable_loadings_object": ({"alpha": 1.0, "loadings": {"x": 1}}, "loadings"),
    "gaussian_a_missing": ({"kind": "gaussian"}, "a"),
    "gaussian_a_nan": ({"a": [[1, math.nan], [math.nan, 1]]}, "a"),
}


@pytest.mark.parametrize("model,field", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS)
def test_malformed_model_exits_2_naming_the_field(model, field, tmp_path, capsys):
    code, out = run(["analyze", "--model", json.dumps(model)], tmp_path)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"field {field!r}" in err


@pytest.mark.parametrize("model, field", [({"a": [[1, 0.2], [0.2]]}, "a"),
                                          ({"alpha": 1.5, "loadings": [[1, 0.2], [0.2]]},
                                           "loadings")])
def test_ragged_model_matrix_exits_2_naming_the_field(model, field, tmp_path, capsys):
    code, out = run(["analyze", "--model", json.dumps(model)], tmp_path)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == (f"error: model field {field!r} must be a list of "
                                       "lists of finite numbers, got [[1, 0.2], [0.2]]\n")


@pytest.mark.parametrize("key", ["000", "111"])
def test_solve_on_a_law_with_marginal_0_or_1_exits_2(key, tmp_path, capsys):
    """``signed_rep_3`` refuses p = 0 and 1, where its closed form divides
    by (1-p) p (1-2p) = 0, so ``solve`` drops that route, and the LP refuses
    the law: a one-line error, no traceback."""
    model = json.dumps({"n": 3, "entries": [{"key": key, "p": 1}]})
    code, out = run(["solve", "--model", model], tmp_path)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: p must lie in (0,1)") and err.count("\n") == 1
