"""No two decision routes contradict each other with confidence.

Each law goes through every route that applies to it, and the verdicts must
agree wherever both are confident:

* square laws: ``scan theta``'s ``feasible`` column, from
  ``square_circle_intervals``, against ``lp_feasibility(exact=True)`` on the
  same exact law, with every Infeasible certificate checked in exact
  arithmetic;
* n = 3 Gaussian laws at thresholds up to h = 8, exact and with a relative
  stderr: no LP ``Infeasible`` beside a ``signed_rep_3`` that calls the law
  feasible, and every ``Infeasible`` certificate verifies exactly;
* exact push-forward laws, color processes by construction: the LP never
  reads ``Infeasible``, and at n = 3 the closed form (p != 1/2) or the
  t-family (p = 1/2) represents the law.
"""

import json

import numpy as np
import pytest

from dcrep import cli
from dcrep.gaussian import square_threshold_law_exact
from dcrep.partitions import BELL, BinaryLaw, PartitionDistribution, push_forward
from dcrep.solver import lp_feasibility, phase_one_exact, signed_rep_3, symmetric_rep_family_3

from conftest import plackett_law3

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
        res = lp_feasibility(law, exact=True)
        assert res.status == ("Feasible" if feasible == "1" else "Infeasible"), theta
        if res.status == "Infeasible":
            assert phase_one_exact(4, law.marginal_p, law.probs, res.certificate), theta
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
        for exact in (False, True):
            res = lp_feasibility(law, exact=exact)
            assert not (rep.feasible and res.status == "Infeasible"), (h, exact)
            assert not (res.status == "Feasible" and not rep.feasible), (h, exact)
            if res.status == "Infeasible":
                assert phase_one_exact(3, law.marginal_p, law.probs, res.certificate), h


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
    """A color process by construction is never ``Infeasible``, by the
    default LP or with ``exact=True``; at n = 3 its representation shows
    through the route that decides its p."""
    for seed in PUSH_FORWARD_SEEDS:
        law = push_forward(random_q(np.random.default_rng([n, seed]), n, kind), p)
        for exact in (False, True):
            assert lp_feasibility(law, exact=exact).status != "Infeasible", (seed, exact)
        if n == 3 and p == 0.5:
            assert not symmetric_rep_family_3(law).is_empty, seed
        elif n == 3:
            assert signed_rep_3(law).feasible, seed
