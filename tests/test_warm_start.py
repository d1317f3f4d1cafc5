"""The strict phase-I LP at p = 1/2 starts from the cached basis of
``solver._start_basis``: the same verdicts and optima as a cold start from the
slack basis, far fewer pivots, and results that do not depend on what was
decided before."""

import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import dcrep
from dcrep import solver
from dcrep.gaussian import (correlations3, markov_chain_cov, square_threshold_law_exact,
                            symmetric_plus_mean_cov, threshold_law_mc, zero_threshold_law_3)
from dcrep.partitions import (BinaryLaw, PartitionDistribution, bell_number, color_map_csc,
                              push_forward, simulate_color_process)
from dcrep.solver import lp_feasibility, phase_one, phase_one_exact
from dcrep.stable import stable_markov_model, stable_threshold_law_mc

from conftest import random_probability_q
from test_solver import negative_pair_law


def dirichlet_law(n, p, seed=0):
    return push_forward(random_probability_q(np.random.default_rng([n, seed]), n), p)


def sparse_law(n, p, seed=0, support=5):
    """The law of a q on ``support`` random partitions, with Dirichlet weights."""
    rng = np.random.default_rng([n, seed, support])
    v = np.zeros(bell_number(n))
    v[rng.choice(len(v), support, replace=False)] = rng.dirichlet(np.ones(support))
    return push_forward(PartitionDistribution.from_vector(n, v), p)


CORPUS = {
    **{f"dirichlet n={n} p={p}": (dirichlet_law, n, p) for n in range(3, 9) for p in (0.3, 0.5)},
    **{f"5-partition n={n} p={p}": (sparse_law, n, p) for n in range(3, 9) for p in (0.3, 0.5)},
    "negative pair": (negative_pair_law,),
    "negative pair p=1/2": (negative_pair_law, 0.5),
    "square theta=pi/3": (square_threshold_law_exact, math.pi / 3),
    "square theta=1.2": (square_threshold_law_exact, 1.2),
    "gaussian chain MC": (threshold_law_mc, markov_chain_cov(4, 0.5), 0.0, 10 ** 4, 0),
    "stable chain MC": (stable_threshold_law_mc, stable_markov_model(0.5, 1.2, 4), 0.5,
                        10 ** 4, 0),
    "color process MC": (lambda: simulate_color_process(
        random_probability_q(np.random.default_rng(5), 5), 0.3, 10 ** 4, seed=0)[1],),
}


def corpus_law(name):
    make, *args = CORPUS[name]
    return make(*args)


@pytest.mark.parametrize("name", CORPUS)
def test_a_warm_start_has_the_verdict_and_optimum_of_a_cold_one(monkeypatch, name):
    """From the cached basis, at the law's own p whether it is 1/2 or not,
    phase I reaches the optimum of a cold start to 1e-12, and lp_feasibility
    gives the verdict it gives with no cached basis."""
    law = corpus_law(name)
    p = law.marginal_p
    mat = color_map_csc(law.n, p)
    cold = phase_one(mat, law.probs)
    warm = phase_one(mat, law.probs, basis=solver._start_basis(law.n))
    assert warm.objective == pytest.approx(cold.objective, rel=0.0, abs=1e-12)
    assert (warm.objective <= solver.FEAS_TOL) == (cold.objective <= solver.FEAS_TOL)

    got = lp_feasibility(law)
    monkeypatch.setattr(solver, "_start_basis", lambda n: None)
    want = lp_feasibility(law)
    assert got.status == want.status
    assert got.status == ("Borderline" if name.endswith("MC") else
                          "Infeasible" if name.startswith(("negative", "square")) else "Feasible")
    # an MC law runs only the box LP, whose objective is relaxed_objective
    key = "relaxed_objective" if name.endswith("MC") else "phase1_objective"
    assert got.detail[key] == pytest.approx(want.detail[key], rel=0.0, abs=1e-12)
    assert got.detail.get("relaxed_objective") == want.detail.get("relaxed_objective")


def negative_gaussian_law(a12):
    """The h = 0 law of a Gaussian triple with a negative correlation: p = 1/2."""
    return zero_threshold_law_3(correlations3(a12, 0.3, 0.2))


INFEASIBLE = {
    **{f"square theta={t}": (square_threshold_law_exact, t) for t in (0.9, 1.2, 1.5)},
    **{f"gaussian a12={a}": (negative_gaussian_law, a) for a in (-0.1, -0.3, -0.6)},
    "negative pair": (negative_pair_law,),
    "negative pair p=1/2": (negative_pair_law, 0.5),
}


@pytest.mark.parametrize("name", INFEASIBLE)
def test_exact_infeasible_certificates_still_verify(name):
    make, *args = INFEASIBLE[name]
    law = make(*args)
    res = lp_feasibility(law, exact=True)
    assert res.status == "Infeasible" and res.detail["certificate_verified"] is True
    assert phase_one_exact(law.n, law.marginal_p, law.probs, res.certificate)


ORDER_SCRIPT = """
import sys
import numpy as np
from dcrep.partitions import push_forward, PartitionDistribution, bell_number, color_map_csc
from dcrep.solver import _start_basis, lp_feasibility, phase_one
n, seed = int(sys.argv[1]), int(sys.argv[2])
q = np.random.default_rng([n, seed]).dirichlet(np.ones(bell_number(n)))
law = push_forward(PartitionDistribution.from_vector(n, q), 0.5)
print(lp_feasibility(law).q.vector.tobytes().hex())
mat = color_map_csc(n, 0.5)
for basis in (_start_basis(n), None):
    res = phase_one(mat, law.probs, basis=basis)
    print(res.y.tobytes().hex(), res.pivots)
"""


def basis_statuses(basis):
    return [int(s) for s in basis.col_status], [int(s) for s in basis.row_status]


def test_q_does_not_depend_on_the_laws_decided_before():
    """The bytes of q, and of y and the pivot count of the warm and the cold
    phase I, for one law are those of a fresh process deciding it first.  Here
    the thread's HiGHS instance has first run laws at other n and p, an MC
    law's relaxed LP, an exact certificate check, an abandoned warm start
    and an LP that HiGHS rejected; the cached start basis is unchanged."""
    start = basis_statuses(solver._start_basis(6))
    for n, p in ((7, 0.5), (4, 0.3), (5, 0.5), (3, 0.5), (6, 0.3), (6, 0.5)):
        lp_feasibility(dirichlet_law(n, p, seed=1))
    mc = threshold_law_mc(symmetric_plus_mean_cov(4, 0.0), 0.0, 20_000, 0)
    assert "relaxed_objective" in lp_feasibility(mc).detail
    assert lp_feasibility(negative_pair_law(0.5), exact=True).detail["certificate_verified"]
    stalled = stalled_phase_one()
    assert stalled.pivots > solver.WARM_PIVOTS_PER_ROW * 256
    with pytest.raises(RuntimeError, match="HiGHS phase I failed: Infeasible"):
        rejected_phase_one()

    law = dirichlet_law(6, 0.5, seed=2)
    src = Path(dcrep.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", ORDER_SCRIPT, "6", "2"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    mat = color_map_csc(6, 0.5)
    here = [lp_feasibility(law).q.vector.tobytes().hex()]
    for basis in (solver._start_basis(6), None):
        res = phase_one(mat, law.probs, basis=basis)
        here.append(f"{res.y.tobytes().hex()} {res.pivots}")
    assert proc.stdout.split("\n")[:3] == here
    assert basis_statuses(solver._start_basis(6)) == start


def test_one_highs_instance_serves_every_lp_of_a_thread(monkeypatch):
    built = []

    class Counting(solver._highs._Highs):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(solver._highs, "_Highs", Counting)
    monkeypatch.setattr(solver, "_THREAD", threading.local())
    for seed in range(50):
        n, p = (5, 0.3) if seed % 2 else (6, 0.5)
        assert lp_feasibility(dirichlet_law(n, p, seed=seed)).feasible
    assert len(built) == 1


def test_threads_deciding_at_once_get_the_serial_q():
    """Three threads (more than the two cores this was written on) deciding
    20 laws each at the same time, each on its own HiGHS instance, get the q
    bytes of one thread deciding them in turn."""
    laws = [[dirichlet_law(n, p, seed=10 * t + seed) for seed in range(5)
             for n, p in ((5, 0.3), (5, 0.5), (6, 0.3), (6, 0.5))] for t in range(3)]

    def decide(batch):
        return [lp_feasibility(law).q.vector.tobytes() for law in batch]

    serial = [decide(batch) for batch in laws]
    barrier = threading.Barrier(len(laws), timeout=60)

    def at_once(batch):
        barrier.wait()
        return decide(batch)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(laws)) as pool:
            futures = [pool.submit(at_once, batch) for batch in laws]
            assert [f.result(timeout=120) for f in futures] == serial
    finally:
        sys.setswitchinterval(interval)


def test_a_warm_start_halves_the_pivots_at_n6():
    """A guard free of wall-clock time: over 60 Dirichlet laws at n = 6,
    p = 1/2, the cached basis takes at most half the pivots of the slack basis
    (about 7 against 42 a law when it was written)."""
    mat = color_map_csc(6, 0.5)
    basis = solver._start_basis(6)
    cold = warm = 0
    for seed in range(60):
        b = dirichlet_law(6, 0.5, seed=seed).probs
        cold += phase_one(mat, b).pivots
        warm += phase_one(mat, b, basis=basis).pivots
    assert warm <= cold / 2


def test_lp_feasibility_starts_warm_only_at_p_half(monkeypatch):
    seen = []

    def recording(a, b, slack=None, basis=None):
        seen.append(basis is not None)
        return phase_one(a, b, slack, basis)

    monkeypatch.setattr(solver, "phase_one", recording)
    for p in (0.3, 0.5, 0.7):
        assert lp_feasibility(dirichlet_law(5, p)).feasible
    # an MC law at p = 1/2 runs only the box LP, and it starts cold
    lp_feasibility(BinaryLaw(3, negative_pair_law(0.5).probs, stderr=np.full(8, 1e-3)))
    assert seen == [False, True, False, False]


def test_a_warm_q_that_misses_a_cell_is_solved_again_cold(monkeypatch):
    """On this law on two partitions the warm start's vertex leaves the LP's
    tolerance in zero cells (4e-13), where the slack basis's vertex is exact:
    lp_feasibility solves it again cold and keeps that q."""
    law = sparse_law(6, 0.5, seed=0, support=2)
    mat = color_map_csc(6, law.marginal_p)
    warm = phase_one(mat, law.probs, basis=solver._start_basis(6))
    _, miss = solver._q_and_miss(6, law.marginal_p, warm.x, law.probs)
    assert solver._misses_a_cell(miss, law.probs)
    seen = []

    def recording(a, b, slack=None, basis=None):
        seen.append(basis is not None)
        return phase_one(a, b, slack, basis)

    monkeypatch.setattr(solver, "phase_one", recording)
    res = lp_feasibility(law)
    assert res.status == "Feasible" and seen == [True, False]
    assert res.q.vector.tobytes() == solver._q_and_miss(
        6, law.marginal_p, phase_one(mat, law.probs).x, law.probs)[0].vector.tobytes()


def uniform_basis(n, p):
    """The optimal basis of the uniform law at p, as ``_start_basis`` finds
    it at p = 1/2."""
    mat = color_map_csc(n, p)
    return solver._run_phase_one(mat, mat @ np.full(mat.shape[1], 1.0 / mat.shape[1]),
                                 None, None)[0].getBasis()


def stalled_phase_one():
    """Phase I of the n = 8 law at p = 0.2 of the test below, from the optimal
    basis of the uniform law at p = 0.1875, where the dual simplex stalls."""
    b = push_forward(PartitionDistribution.from_vector(
        8, np.random.default_rng([8, 0]).dirichlet(np.ones(bell_number(8)))), 0.2).probs
    return phase_one(color_map_csc(8, 0.2), b, basis=uniform_basis(8, 0.1875))


def rejected_phase_one():
    """A phase I whose box for row 2 is empty: HiGHS finds no optimum."""
    mat = color_map_csc(3, 0.3)
    slack = np.full(8, 0.01)
    slack[2] = -0.01
    return phase_one(mat, mat @ np.full(5, 0.2), slack)


def test_a_stalled_warm_start_is_abandoned_for_the_slack_basis():
    """From the optimal basis of the uniform law at p = 0.1875, the dual
    simplex stalls on this n = 8 law at p = 0.2 (past 26,000 degenerate
    iterations in 10 s when the guard was written): after
    ``WARM_PIVOTS_PER_ROW`` iterations per row phase I starts again from the
    slack basis, and ends where a cold start ends."""
    mat = color_map_csc(8, 0.2)
    b = push_forward(PartitionDistribution.from_vector(
        8, np.random.default_rng([8, 0]).dirichlet(np.ones(bell_number(8)))), 0.2).probs
    cold = phase_one(mat, b)
    warm = phase_one(mat, b, basis=uniform_basis(8, 0.1875))
    assert warm.pivots == solver.WARM_PIVOTS_PER_ROW * 256 + cold.pivots
    for field in ("x", "y"):
        assert getattr(warm, field).tobytes() == getattr(cold, field).tobytes()
    assert warm.objective == cold.objective
