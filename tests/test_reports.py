"""``reports._plain`` is the one rule by which a result becomes JSON: each
result class meets it as a pinned literal."""

import json

import numpy as np
import pytest

from dcrep.conditions import ConditionReport, LargeHVerdict, SavageStatus
from dcrep.partitions import BinaryLaw, PartitionDistribution
from dcrep.reports import ClassificationReport, Regime, Verdict, _plain
from dcrep.solver import FeasibilityResult
from dcrep.stable import StableLinearModel

CASES = {
    "feasible": (
        FeasibilityResult("Feasible", PartitionDistribution(2, {"1|2": 0.75, "12": 0.25}),
                          np.float64(1e-17), detail={"phase1_objective": 0.0}),
        {"status": "Feasible", "q": {"1|2": 0.75, "12": 0.25}, "infeasibility_margin": 1e-17,
         "certificate": None, "detail": {"phase1_objective": 0.0}}),
    "infeasible": (
        FeasibilityResult("Infeasible", None, 0.05, certificate=np.array([-1.0, 0.5, -0.0]),
                          detail={"phase1_objective": np.float64(0.05),
                                  "duals": np.array([1, 2])}),
        {"status": "Infeasible", "q": None, "infeasibility_margin": 0.05,
         "certificate": [-1.0, 0.5, -0.0],
         "detail": {"phase1_objective": 0.05, "duals": [1, 2]}}),
    "conditions": (
        ConditionReport(savage_vector=np.array([0.5, 0.25, 0.25]), savage=SavageStatus.STRICT,
                        stieltjes_inverse=False, stieltjes_offending=[(1, 2, 0.125)],
                        dgff=False, dgff_failures=["inverse has positive off-diagonal entries"],
                        quadratic=1.0),
        {"savage_vector": [0.5, 0.25, 0.25], "savage": "Strict", "stieltjes_inverse": False,
         "stieltjes_offending": [[1, 2, 0.125]], "dgff": False,
         "dgff_failures": ["inverse has positive off-diagonal entries"], "quadratic": 1.0}),
    "large_h": (
        LargeHVerdict(Verdict.COLOR_REP, "i", np.array([0.5, 0.25, 0.25]), 1.0),
        {"verdict": "ColorRep", "case_tag": "i", "savage_vector": [0.5, 0.25, 0.25],
         "quadratic": 1.0}),
    "large_h_zero_cov": (
        LargeHVerdict(Verdict.NO_COLOR_REP, "zero-cov"),
        {"verdict": "NoColorRep", "case_tag": "zero-cov", "savage_vector": None,
         "quadratic": None}),
    "classification": (
        ClassificationReport(Verdict.NO_COLOR_REP, Regime.ALL_H, "forbidden pattern",
                             {"pattern": "101", "mass": np.float64(0.25), "count": np.int64(3)}),
        {"verdict": "NoColorRep", "regime": "all-h", "source": "forbidden pattern",
         "witness": {"pattern": "101", "mass": 0.25, "count": 3}}),
    "law": (
        BinaryLaw(1, [0.25, 0.75]),
        {"n": 1, "entries": [{"key": "0", "p": 0.25}, {"key": "1", "p": 0.75}]}),
    "mc_law": (
        BinaryLaw(1, np.array([0.25, 0.75]), stderr=np.array([0.125, 0.0])),
        {"n": 1, "entries": [{"key": "0", "p": 0.25}, {"key": "1", "p": 0.75}],
         "stderr": [0.125, 0.0]}),
    "stable_model": (
        StableLinearModel(1.5, [[1.0, 0.0], [0.0, 1.0]]),
        {"alpha": 1.5, "loadings": [[1.0, 0.0], [0.0, 1.0]]}),
}


@pytest.mark.parametrize("name", CASES)
def test_plain_spells_each_result_class(name):
    result, expect = CASES[name]
    plain = _plain(result)
    assert plain == expect
    # only JSON's own types: a numpy value would print the same but is not one
    assert json.loads(json.dumps(plain)) == plain
    assert repr(plain) == repr(expect)


@pytest.mark.parametrize("stderr", [None, [0.01, 0.02, 0.0, 0.03]])
def test_a_law_has_one_json_object(stderr):
    """``_plain`` writes a law as ``to_json`` does, and ``from_json_dict``
    reads it back to the same law."""
    law = BinaryLaw(2, [0.1, 0.2, 0.3, 0.4], stderr=stderr)
    plain = _plain({"law": law})["law"]
    assert plain == json.loads(law.to_json()) == law.to_json_dict()
    back = BinaryLaw.from_json_dict(plain)
    assert np.array_equal(back.probs, law.probs)
    assert (back.stderr is None) == (stderr is None)
    assert stderr is None or np.array_equal(back.stderr, law.stderr)
