import json
import math

import pytest

from dcrep.cli import main
from dcrep.gaussian import zero_threshold_law_3, fully_symmetric_cov

GAUSS3 = json.dumps({"a": [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]]})
STABLE3 = json.dumps({"alpha": 1.0,
                      "loadings": [[0.5, 0.8660254037844386, 0, 0],
                                   [0.5, 0, 0.8660254037844386, 0],
                                   [0.5, 0, 0, 0.8660254037844386]]})


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


def test_solve_explicit_law(tmp_path):
    law = zero_threshold_law_3(fully_symmetric_cov(3, 0.5))
    model = law.to_json()
    code, out = run(["solve", "--model", model], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["lp"]["status"] == "Feasible"
    assert payload["results"]["symmetric_family"]["t_interval"] is not None


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


def test_simulate_ou(tmp_path):
    code, out = run(["simulate", "--simulator", "ou", "--a", "0.5", "--n", "3",
                     "--samples", "20000", "--seed", "3"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["verification"]["passed"] is True


def test_simulate_color_from_solved_law(tmp_path):
    law = zero_threshold_law_3(fully_symmetric_cov(3, 0.4))
    code, out = run(["simulate", "--simulator", "color", "--model", law.to_json(),
                     "--samples", "50000", "--seed", "4"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["within_4se"] is True


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
