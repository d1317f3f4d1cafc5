"""Every name the benchmark's tracer wraps must still exist in dcrep, and
its LP counters must read what ``lp_feasibility`` solves.

``bench/tracing.py`` is loaded as a plain module.  A refactor that drops or
renames a traced function, or changes what ``phase_one`` takes, otherwise
fails only a traced benchmark run (``bench/run.py --trace 1``).
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dcrep import cli, solver
from dcrep.partitions import bell_number, push_forward, simulate_color_process
from dcrep.solver import phase_one

from conftest import random_probability_q

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("path,attr", [(t[0], t[1]) for t in tracing.TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in tracing.TARGETS])
def test_traced_name_is_defined_by_its_owner(path, attr):
    owner = tracing._owner(path)
    assert attr in vars(owner), f"{path} has no attribute {attr!r} of its own"
    assert callable(vars(owner)[attr])


LAWS = {
    "dirichlet n=4": lambda: push_forward(random_probability_q(np.random.default_rng(4), 4), 0.3),
    "color process MC": lambda: simulate_color_process(
        random_probability_q(np.random.default_rng(5), 5), 0.3, 10 ** 4, seed=0)[1],
}


@pytest.mark.parametrize("name", LAWS)
def test_installed_tracer_counts_the_phase_one_lp_shapes(monkeypatch, name):
    """The installed tracer's ``simplex.phase_one`` counters read the matrix
    that ``lp_feasibility`` hands ``phase_one``: rows 2^n and columns Bell(n)
    per call, and HiGHS's pivots."""
    law = LAWS[name]()
    calls = []

    def recording(a, b, slack=None):
        result = phase_one(a, b, slack)
        calls.append((a.shape, result.pivots))
        return result

    monkeypatch.setattr(solver, "phase_one", recording)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        solver.lp_feasibility(law)
    finally:
        tracer.uninstall()
    assert len(calls) == (2 if name.endswith("MC") else 1)
    assert all(shape == (2 ** law.n, bell_number(law.n)) for shape, _ in calls)
    counts = {key: tracer.counts[f"simplex.phase_one.{key}"] for key in ("rows", "cols", "pivots")}
    assert counts == {"rows": sum(shape[0] for shape, _ in calls),
                      "cols": sum(shape[1] for shape, _ in calls),
                      "pivots": sum(pivots for _, pivots in calls)}
    assert min(counts.values()) > 0


def test_parser_takes_every_cli_argv_of_the_benchmark(monkeypatch, tmp_path):
    """Every argv of the benchmark's ``cli`` round, with the ``--out`` it adds,
    parses: a removed or renamed flag fails here, not in a benchmark run."""
    monkeypatch.syspath_prepend(str(BENCH))     # workloads.py imports its oracle
    workloads = importlib.import_module("workloads")
    parser = cli.build_parser()
    for seed in (1, 2, 3):
        ops = workloads.round_ops("cli", seed, str(tmp_path))
        assert {op.tags["subcommand"] for op in ops} == set(cli._COMMANDS)
        for op in ops:
            args = parser.parse_args(op.inputs["argv"] + ["--out", str(tmp_path / "out")])
            assert args.command == op.tags["subcommand"]


@pytest.mark.parametrize("model,span", [
    ('{"a": [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]]}', "gaussian.threshold_law_mc"),
    ('{"alpha": 1.0, "loadings": [[0.5, 0.5, 0], [0.5, 0, 0.5]]}',
     "stable.stable_threshold_law_mc"),
], ids=["gaussian", "stable"])
def test_installed_tracer_times_the_mc_laws_of_the_cli(tmp_path, model, span):
    """``solve --samples`` draws its law through the sampler that the tracer
    wraps on its module, so the sampler's span and sample count are recorded."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        assert cli.main(["solve", "--model", model, "--h", "0.2", "--samples", "2000",
                         "--out", str(tmp_path / "out.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.summary()[span]["calls"] == 1
    assert tracer.counts[span + ".samples"] == 2000
