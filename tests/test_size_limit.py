"""The one size limit, MAX_N = 9: every entry point accepts n = 9 and rejects
n = 10 with the message of ``partitions._check_n``, and n = 9 is decided."""

import json
import re
import time

import numpy as np
import pytest

from dcrep.cli import main
from dcrep.embeddings import (ou_partition_batch, ou_star_partition_batch,
                              stable_chain_partition_batch, stable_star_partition_batch)
from dcrep.gaussian import markov_chain_cov, threshold_law_mc
from dcrep.partitions import (BinaryLaw, Partition, PartitionDistribution, bell_number,
                              color_map, enumerate_partitions, push_forward)
from dcrep.solver import lp_feasibility
from dcrep.stable import StableLinearModel, stable_threshold_law_mc

TOO_BIG = re.escape("n must be in [1, 9], got 10")


def test_library_entry_points_accept_nine():
    assert len(enumerate_partitions(9)) == bell_number(9) == 21147
    assert Partition.of([range(1, 10)]).key == "123456789"
    assert BinaryLaw(9, np.full(512, 1.0 / 512)).n == 9
    assert PartitionDistribution(9, {"123456789": 1.0}).n == 9
    vec = np.zeros(bell_number(9))
    vec[0] = 1.0
    assert PartitionDistribution.from_vector(9, vec).n == 9
    assert color_map(9, 0.3).shape == (512, 21147)


@pytest.mark.parametrize("build", [
    lambda: enumerate_partitions(10),
    lambda: Partition.of([range(1, 11)]),
    lambda: BinaryLaw(10, np.full(1024, 1.0 / 1024)),
    lambda: PartitionDistribution(10, {"1": 1.0}),
    lambda: PartitionDistribution.from_vector(10, [1.0]),
    lambda: color_map(10, 0.3),
], ids=["enumerate_partitions", "Partition.of", "BinaryLaw",
        "PartitionDistribution", "from_vector", "color_map"])
def test_library_entry_points_reject_ten(build):
    with pytest.raises(ValueError, match=TOO_BIG):
        build()


def stable_model(d):
    rows = np.random.default_rng(d).uniform(0.1, 1.0, size=(d, d + 1))
    return StableLinearModel(1.5, rows)


@pytest.mark.parametrize("sample", [
    lambda n, gen: ou_partition_batch(0.5, n, 10, gen),
    lambda n, gen: stable_chain_partition_batch(1.5, 0.5, n, 10, gen),
    lambda n, gen: ou_star_partition_batch(0.5, n - 1, 10, gen),
    lambda n, gen: stable_star_partition_batch(1.5, 0.5, n - 1, 10, gen),
    lambda n, gen: threshold_law_mc(markov_chain_cov(n, 0.5), 0.0, 10, gen),
    lambda n, gen: stable_threshold_law_mc(stable_model(n), 0.0, 10, gen),
], ids=["ou", "stable_chain", "ou_star", "stable_star", "threshold_law_mc",
        "stable_threshold_law_mc"])
def test_samplers_reject_ten_before_sampling(sample):
    sample(9, np.random.default_rng(0))
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match=TOO_BIG):
        sample(10, gen)
    assert gen.bit_generator.state == state


def test_cli_rejects_ten(tmp_path, capsys):
    law = {"kind": "law", "n": 10,
           "entries": [{"key": format(i, "010b"), "p": 1.0 / 1024} for i in range(1024)]}
    path = tmp_path / "law10.json"
    path.write_text(json.dumps(law))
    assert main(["solve", "--model", str(path)]) == 2
    assert re.search(TOO_BIG, capsys.readouterr().err)
    assert main(["simulate", "--simulator", "ou", "--n", "10", "--samples", "10"]) == 2
    assert re.search(TOO_BIG, capsys.readouterr().err)


def test_nine_feasible_by_construction_within_budget():
    start = time.perf_counter()
    q = PartitionDistribution.from_vector(
        9, np.random.default_rng(9).dirichlet(np.ones(bell_number(9))))
    nu = push_forward(q, 0.3)
    res = lp_feasibility(nu)
    assert time.perf_counter() - start < 10.0
    assert res.status == "Feasible"
    assert res.infeasibility_margin <= 1e-8


def test_nine_anti_coupled_pair_is_exactly_infeasible():
    # X2 = 1 - X1 with fair coins, X3..X9 independent fair coins: a color
    # process has P(X1 != X2) <= 2p(1-p) = 1/2, here it is 1
    probs = np.kron([0.0, 0.5, 0.5, 0.0], np.full(128, 1.0 / 128))
    res = lp_feasibility(BinaryLaw(9, probs))
    assert res.status == "Infeasible"
    assert res.detail["certificate_verified"] is True
    assert res.certificate is not None


def test_nine_mc_infeasible_verified_within_budget():
    """An n = 9 MC law decided Infeasible by the box LP, its certificate
    checked exactly over the whole box: the LP takes about 2 s and the check
    about 0.03 s on a 2-core x86-64 box."""
    law = threshold_law_mc(markov_chain_cov(9, 0.5), 0.5, 10_000, 9)
    start = time.perf_counter()
    res = lp_feasibility(law)
    assert time.perf_counter() - start < 10.0
    assert res.status == "Infeasible"
    assert res.detail["certificate_verified"] is True
    assert res.certificate is not None
