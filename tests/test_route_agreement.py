"""No two decision routes contradict each other with confidence.

Each law goes through every route that applies to it, and the verdicts must
agree wherever both are confident:

* square laws: ``scan theta``'s ``feasible`` column, from
  ``square_circle_intervals``, against ``lp_feasibility`` on the same exact
  law, with every Infeasible certificate checked in exact arithmetic;
* n = 3 Gaussian laws at thresholds up to h = 8, exact and with a relative
  stderr: no LP ``Infeasible`` beside a ``signed_rep_3`` that calls the law
  feasible, and every ``Infeasible`` certificate verifies exactly;
* exact push-forward laws, color processes by construction: the LP never
  reads ``Infeasible``, and at n = 3 the closed form (p != 1/2) or the
  t-family (p = 1/2) represents the law;
* seeded MC laws at n = 3..8, Gaussian at h = 0 and h != 0, stable, and the
  color processes of 5-partition q: ``lp_feasibility``, which solves only
  the box LP of an MC law, gives the verdict of the strict LP followed by
  the box LP, with every ``Infeasible`` certificate verified exactly over
  the box and every ``Borderline`` q's law within the box's reach of the
  input law.

Every ``Infeasible`` here reports ``certificate_verified: true``.
"""

import json

import numpy as np
import pytest

from dcrep import cli, solver
from dcrep.gaussian import (fully_symmetric_cov, markov_chain_cov, square_threshold_law_exact,
                            symmetric_plus_mean_cov, threshold_law_mc)
from dcrep.partitions import (BELL, BinaryLaw, PartitionDistribution, color_map_csc,
                              push_forward, simulate_color_process)
from dcrep.solver import (FEAS_TOL, lp_feasibility, phase_one, phase_one_exact, signed_rep_3,
                          symmetric_rep_family_3)
from dcrep.stable import common_shock_model, stable_markov_model, stable_threshold_law_mc

from conftest import law_scales_into_the_box, plackett_law3, random_standard_pd

N3_CORRELATIONS = [(0.0, 0.5, 0.5), (0.05, 0.6825, 0.6825), (0.1, 0.5, 0.5),
                   (0.3, 0.5, 0.2)]
N3_THRESHOLDS = [0.5, 2, 4, 6, 8]
RELATIVE_STDERRS = [None, 1e-3, 1e-1]
PUSH_FORWARD_SEEDS = range(6)


def test_scan_theta_feasible_column_is_the_lps_verdict(tmp_path):
    """Every 10th row of ``scan theta --a-step 0.001``: 157 exact h = 0 laws
    on both sides of pi/4, where the square stops being a color process."""
    out = tmp_path / "theta.csv"
    assert cli.main(["scan", "--scan", "theta", "--a-step", "0.001", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[:2] == ["theta", "feasible"]
    rows = [line.split(",") for line in lines[2::10]]
    assert len(rows) == 157
    verdicts = set()
    for theta, feasible, *_ in rows:
        law = square_threshold_law_exact(float(theta))
        res = lp_feasibility(law)
        assert res.status == ("Feasible" if feasible == "1" else "Infeasible"), theta
        if res.status == "Infeasible":
            assert res.detail["certificate_verified"] is True, theta
            assert phase_one_exact(4, law.marginal_p, law.probs, res.certificate,
                                   law.halfwidth), theta
        verdicts.add(res.status)
    assert verdicts == {"Feasible", "Infeasible"}


def n3_law(rho, h, relative):
    law = plackett_law3(rho, h)
    return law if relative is None else BinaryLaw(3, law.probs, stderr=relative * law.probs)


@pytest.mark.parametrize("relative", RELATIVE_STDERRS, ids=["exact", "1e-3", "1e-1"])
@pytest.mark.parametrize("rho", N3_CORRELATIONS, ids=str)
def test_no_lp_infeasible_beside_a_feasible_signed_representation(rho, relative):
    """At h = 6 with a stderr of 1e-3 of each cell, (0.3, 0.5, 0.2) has cells
    down to 1e-9 and a feasible ``signed_rep_3``; HiGHS ends phase I at
    3e-9 there, and its duals, though no certificate, used to read
    Infeasible."""
    for h in N3_THRESHOLDS:
        law = n3_law(rho, h, relative)
        rep = signed_rep_3(law)
        res = lp_feasibility(law)
        assert not (rep.feasible and res.status == "Infeasible"), h
        assert not (res.status == "Feasible" and not rep.feasible), h
        if res.status == "Infeasible":
            assert res.detail["certificate_verified"] is True, h
            assert phase_one_exact(3, law.marginal_p, law.probs, res.certificate,
                                   law.halfwidth), h


def test_solve_never_prints_infeasible_beside_a_feasible_signed_representation(tmp_path):
    """The same tiny-cell law through ``dcrep solve``, as a JSON law with stderr."""
    law = n3_law((0.3, 0.5, 0.2), 6, 1e-3)
    out = tmp_path / "solve.json"
    assert cli.main(["solve", "--model", json.dumps(law.to_json_dict()),
                     "--out", str(out)]) == 0
    result = json.loads(out.read_text())["results"]
    assert result["signed_rep_3"]["feasible"]
    assert result["lp"]["status"] == "Borderline"
    assert result["lp"]["certificate"] is None


def random_q(rng, n, kind):
    """Dirichlet(1) or Dirichlet(0.1) weights on all of B_n, or Dirichlet(1)
    weights on 5 partitions of it."""
    vec = np.zeros(BELL[n])
    if kind == "five":
        vec[rng.choice(BELL[n], 5, replace=False)] = rng.dirichlet(np.ones(5))
    else:
        vec[:] = rng.dirichlet(np.full(BELL[n], 1.0 if kind == "dirichlet1" else 0.1))
    return PartitionDistribution.from_vector(n, vec)


@pytest.mark.parametrize("p", [0.3, 0.5])
@pytest.mark.parametrize("kind", ["dirichlet1", "dirichlet0.1", "five"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_no_route_calls_an_exact_push_forward_infeasible(n, kind, p):
    """A color process by construction is never ``Infeasible``; at n = 3
    its representation shows through the route that decides its p."""
    for seed in PUSH_FORWARD_SEEDS:
        law = push_forward(random_q(np.random.default_rng([n, seed]), n, kind), p)
        assert lp_feasibility(law).status != "Infeasible", seed
        if n == 3 and p == 0.5:
            assert not symmetric_rep_family_3(law).is_empty, seed
        elif n == 3:
            assert signed_rep_3(law).feasible, seed


# -- MC laws: the box LP alone against strict-then-box ---------------------------

def strict_then_box(nu):
    """The verdict of an MC law as the strict LP followed by the box LP gave
    it: Borderline when the strict LP (warm at p = 1/2) or the box LP
    reaches an objective up to FEAS_TOL, otherwise Infeasible when the box
    LP's duals pass ``_clean_certificate`` and the exact check over the box,
    and Borderline when they fail."""
    p = nu.marginal_p
    mat = color_map_csc(nu.n, p)
    warm = solver._start_basis(nu.n) if abs(p - 0.5) <= solver.NOISE_FLOOR else None
    if phase_one(mat, nu.probs, basis=warm).objective <= FEAS_TOL:
        return "Borderline"
    box = phase_one(mat, nu.probs, slack=nu.halfwidth)
    if box.objective <= FEAS_TOL:
        return "Borderline"
    clean = solver._clean_certificate(mat, nu.probs, box.y)
    verified = clean is not None and phase_one_exact(nu.n, p, nu.probs, clean, nu.halfwidth)
    return "Infeasible" if verified else "Borderline"


def five_partition_law(n, draw, m):
    """ROADMAP item 1's recipe: the color process at p = 0.3 of a q with
    Dirichlet(1) weights on 5 random partitions, m samples."""
    q = random_q(np.random.default_rng([n, draw]), n, "five")
    return simulate_color_process(q, 0.3, m, seed=[n, draw])[1]


# three laws a family at n = 3..7 and the first at n = 8, each made by
# law(n, draw); the h = 0 Gaussian laws count reflected pairs, and often
# pass the strict LP
MC_FAMILIES = {
    "gaussian h=0": lambda n, draw: threshold_law_mc(
        (markov_chain_cov(n, 0.5), fully_symmetric_cov(n, 0.3),
         random_standard_pd(np.random.default_rng([n, draw]), n))[draw], 0.0, 2000, [n, draw]),
    "gaussian h!=0": lambda n, draw: threshold_law_mc(
        (markov_chain_cov(n, 0.6), symmetric_plus_mean_cov(n, 0.5),
         random_standard_pd(np.random.default_rng([n, draw]), n))[draw], 0.3, 2000, [n, draw]),
    "stable": lambda n, draw: stable_threshold_law_mc(
        (stable_markov_model(0.5, 1.2, n), common_shock_model(0.5, 0.8, n),
         stable_markov_model(0.7, 0.6, n))[draw], 0.5 * (draw % 2), 2000, [n, draw]),
    "item 1 recipe": lambda n, draw: five_partition_law(n, draw, 10 ** 4),
}


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("family", MC_FAMILIES)
def test_the_box_lp_alone_decides_an_mc_law_as_strict_then_box(family, n):
    for draw in range(3 if n < 8 else 1):
        law = MC_FAMILIES[family](n, draw)
        res = lp_feasibility(law)
        assert res.status == strict_then_box(law), draw
        assert "phase1_objective" not in res.detail, draw
        p = law.marginal_p
        if res.status == "Infeasible":
            assert res.detail["certificate_verified"] is True, draw
            assert phase_one_exact(n, p, law.probs, res.certificate, law.halfwidth), draw
        elif res.q is not None:
            assert law_scales_into_the_box(push_forward(res.q, p).probs, law), draw

