"""The benchmark's workloads: operations generated from a seed, each with its check.

A workload run repeats one round of operations.  The round of workload w
under seed s draws its inputs from ``numpy.random.default_rng([s, w])`` and
is a fixed mix of operations: every seed gives the same shape and the same
expected verdicts, with different inputs.  dcrep receives only the generated
inputs (laws, models, CLI arguments); expected verdicts come from how each
input was built and are checked by ``oracle``, never by dcrep itself.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from dcrep import cli, embeddings, gaussian, partitions, solver, stable

import oracle

WORKLOADS = ("decide", "decide_mc", "verify", "cli")

# One deadline for every decision.  The slowest decisions that pass take about
# 1 s (stable Markov MC laws at n = 5), and up to 2 s at n = 7, p = 1/2; the
# simplex pivot guard trips after minutes.
DEADLINE_S = 10.0

MC_SAMPLES = 1_000_000        # decide_mc laws
MC_SAMPLES_INFEASIBLE = 10_000_000
BATCH_SAMPLES = 10_000        # verify: path-embedding batches
COLOR_SAMPLES = 1_000_000     # verify: simulate_color_process
SCAN_STEPS = {"ab": 0.01, "theta": 0.001, "alpha": 0.0001}
CLI_SIM_SAMPLES = 10_000
# cli: OU simulations per round.  They sit between the fast commands and the
# long scans, and there are enough of them that the median is one.
SIMULATIONS = 5

# decide: (n, p, strict decisions per round) on Dirichlet push-forward laws.
# Most decisions, and most of the time, are n = 6, p = 1/2 (about 25 ms, with
# little spread from law to law), so the median latency is one of them.  Two
# sizes are left out of the timed loop:
#   * n = 7, p = 1/2 passes, but one law takes 0.5-1.9 s depending on the
#     draw, so a round holding one would move by a fifth from seed to seed;
#   * n = 6, p = 0.3 goes to the known-defect probe: about 2 in 100 of its laws
#     come back Feasible with a q that misses the law.
DECIDE_MIX = ((3, 0.3, 1), (3, 0.5, 1), (4, 0.3, 1), (4, 0.5, 1), (5, 0.3, 2), (5, 0.5, 2),
              (6, 0.5, 60))


@dataclass
class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` is not.

    ``check(result)`` returns (problem or None, work units done).  Work units
    are decisions, verified samples or scan rows, depending on the workload;
    operations outside the throughput metric report 0.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[str | None, float]]
    expect: str
    inputs: dict
    deadline: bool = False
    throughput: bool = True
    tags: dict = field(default_factory=dict)


def _dirichlet_law(rng, n: int, p: float):
    """A law that is a color process by construction: push-forward of Dirichlet q."""
    blocks = oracle.partitions(n)
    q = rng.dirichlet(np.ones(len(blocks)))
    return dict(zip(blocks, q)), oracle.color_law(dict(zip(blocks, q)), n, p)


def _sparse_law(rng, n: int, p: float, support: int) -> np.ndarray:
    """A color process whose partition law sits on ``support`` random partitions."""
    blocks = oracle.partitions(n)
    picked = rng.choice(len(blocks), size=support, replace=False)
    q = dict(zip((blocks[i] for i in picked), rng.dirichlet(np.ones(support))))
    return oracle.color_law(q, n, p)


def _negative_pair_law(rng) -> np.ndarray:
    """A Gaussian triple with a negative correlation: no color process, since a
    color process has nonnegative pair covariances."""
    while True:
        a12 = rng.uniform(-0.6, -0.1)
        a13, a23 = rng.uniform(-0.2, 0.6, size=2)
        det = 1 + 2 * a12 * a13 * a23 - a12 ** 2 - a13 ** 2 - a23 ** 2
        if det > 0.05:
            return oracle.gaussian3_zero_law(a12, a13, a23)


def _decision(name, law_probs, n, expect, exact=False, make_law=None,
              mc_samples=None) -> Op:
    """An lp_feasibility decision on a given law, or on one made by a sampler."""
    state = {}

    def call():
        law = make_law() if make_law else partitions.BinaryLaw(n, law_probs)
        state["nu"] = np.asarray(law.probs)
        return solver.lp_feasibility(law, exact=exact)

    def check(result):
        return oracle.decision_problem(result, expect, state["nu"], n, mc_samples), 1.0

    inputs = {"n": n, "exact": exact}
    if law_probs is not None:
        inputs["law"] = [float(v) for v in law_probs]
    return Op(name, call, check, expect, inputs, deadline=True)


# -- decide: exact laws, strict and exact LP routes ----------------------------

def decide_round(rng) -> list[Op]:
    ops = []
    for n, p, count in DECIDE_MIX:
        for _ in range(count):
            _, nu = _dirichlet_law(rng, n, p)
            ops.append(_decision(f"strict n={n} p={p}", nu, n, "Feasible"))
    theta_ok = rng.uniform(0.05, math.pi / 4 - 0.05)
    ops.append(_decision("square theta<pi/4", oracle.square_zero_law(theta_ok), 4,
                         "Feasible"))
    for exact in (False, True):
        ops.append(_decision(f"negative pair exact={exact}", _negative_pair_law(rng), 3,
                             "Infeasible",
                             exact=exact))
        theta = rng.uniform(math.pi / 4 + 0.05, math.pi / 2 - 0.05)
        ops.append(_decision(f"square theta>pi/4 exact={exact}",
                             oracle.square_zero_law(theta), 4, "Infeasible", exact=exact))
    return ops


def decide_known_defects(rng) -> list[Op]:
    """Decisions that are wrong or hang at the time the benchmark was written.

    They run after the timed loop, under the same deadline, and are reported
    on their own:

    * ``exact=True`` calls these feasible laws Infeasible (float roundoff read
      exactly);
    * the strict simplex stalls on the degenerate n = 7, p = 0.3 LP of a
      partition law with small support (30 of the 877 partitions) until its
      pivot guard trips, minutes later;
    * about 2 in 100 Dirichlet laws at n = 6, p = 0.3 come back Feasible with
      a q whose push-forward misses the law; draw 74 is one (off by 0.011).
    """
    ops = []
    for n in (3, 4):
        _, nu = _dirichlet_law(rng, n, 0.3)
        ops.append(_decision(f"exact n={n} p=0.3", nu, n, "Feasible", exact=True))
    ops.append(_decision("strict n=7 p=0.3, 30-partition support",
                         _sparse_law(rng, 7, 0.3, 30), 7, "Feasible"))
    _, nu = _dirichlet_law(np.random.default_rng(74), 6, 0.3)
    ops.append(_decision("strict n=6 p=0.3, Dirichlet draw 74", nu, 6, "Feasible"))
    return ops


# -- decide_mc: MC laws, strict then relaxed LP --------------------------------

def _mc_decision(name, n, make, inputs, expect="representable", m=MC_SAMPLES) -> Op:
    op = _decision(name, None, n, expect, make_law=make, mc_samples=m)
    op.inputs.update(inputs, samples=m)
    return op


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


def decide_mc_round(rng) -> list[Op]:
    """MC laws of fixed models; the seed draws the sampler seeds and the q's."""
    g, st = gaussian, stable
    ops = []
    for n in (4, 5):
        s = _seed(rng)
        ops.append(_mc_decision(
            f"gaussian markov n={n}", n,
            lambda n=n, s=s: g.threshold_law_mc(g.markov_chain_cov(n, 0.6), 0.0, MC_SAMPLES, s),
            {"a": 0.6, "seed": s}))
    s = _seed(rng)
    ops.append(_mc_decision(
        "gaussian symmetric n=5", 5,
        lambda s=s: g.threshold_law_mc(g.fully_symmetric_cov(5, 0.5), 0.0, MC_SAMPLES, s),
        {"a": 0.5, "seed": s}))
    s = _seed(rng)
    ops.append(_mc_decision(
        "symmetric plus mean n=4", 4,
        lambda s=s: g.threshold_law_mc(g.symmetric_plus_mean_cov(4, 0.0), 0.0,
                                       MC_SAMPLES_INFEASIBLE, s),
        {"a": 0.0, "seed": s}, expect="Infeasible", m=MC_SAMPLES_INFEASIBLE))
    for alpha in (0.4, 1.0, 1.5):
        s = _seed(rng)
        ops.append(_mc_decision(
            f"stable common shock alpha={alpha}", 3,
            lambda alpha=alpha, s=s: st.stable_threshold_law_mc(
                st.common_shock_model(0.5, alpha, 3), 0.0, MC_SAMPLES, s),
            {"a": 0.5, "alpha": alpha, "seed": s}))
    s = _seed(rng)
    ops.append(_mc_decision(
        "stable markov n=5", 5,
        lambda s=s: st.stable_threshold_law_mc(st.stable_markov_model(0.5, 1.2, 5), 0.0,
                                               MC_SAMPLES, s),
        {"a": 0.5, "alpha": 1.2, "seed": s}))
    for n in (4, 5):
        q, _ = _dirichlet_law(rng, n, 0.3)
        dist, s = {oracle.key(b): float(w) for b, w in q.items()}, _seed(rng)
        ops.append(_mc_decision(
            f"color process n={n} p=0.3", n,
            lambda n=n, dist=dist, s=s: partitions.simulate_color_process(
                partitions.PartitionDistribution(n, dist), 0.3, MC_SAMPLES, s)[1],
            {"q": dist, "seed": s}))
    return ops


def decide_mc_known_defects(rng) -> list[Op]:
    """A representable n = 6 MC law whose relaxed LP runs into the pivot guard.

    Relaxed n = 6 decisions take 1-4 s when they finish, but some MC draws
    make the Bland walk on the 192-row relaxed system run for minutes; this
    is one of them, fixed so that it shows on every run.
    """
    g = gaussian
    return [_mc_decision(
        "gaussian markov n=6 a=0.5 sampler seed 5", 6,
        lambda: g.threshold_law_mc(g.markov_chain_cov(6, 0.5), 0.0, MC_SAMPLES, 5),
        {"a": 0.5, "seed": 5})]


# -- verify: path-embedding samplers and the color-process sampler -------------

def _batch(name, make, inputs, chain3_a=None) -> Op:
    """A sampler batch and its verify_color_property report, both checked by
    the oracle from the batch's signs and labels."""
    def call():
        batch = make()
        return batch, embeddings.verify_color_property(batch)

    def check(result):
        batch, report = result
        if batch.signs.shape[0] != BATCH_SAMPLES:
            return f"batch has {batch.signs.shape[0]} samples", 0.0
        return (oracle.batch_problem(batch.signs, batch.labels, report, chain3_a),
                float(BATCH_SAMPLES))

    return Op(name, call, check, "color property", inputs)


def verify_round(rng) -> list[Op]:
    """Samplers of fixed models; the seed draws the sampler seeds and the q."""
    emb = embeddings
    m = BATCH_SAMPLES
    ops = []
    for n in (3, 6):
        s = _seed(rng)
        ops.append(_batch(f"ou path n={n}",
                          lambda n=n, s=s: emb.ou_partition_batch(0.5, n, m, s),
                          {"a": 0.5, "n": n, "seed": s}, chain3_a=0.5 if n == 3 else None))
    s = _seed(rng)
    ops.append(_batch("stable path n=4",
                      lambda s=s: emb.stable_chain_partition_batch(1.2, 0.5, 4, m, s),
                      {"alpha": 1.2, "a": 0.5, "seed": s}))
    s = _seed(rng)
    ops.append(_batch("ou star leaves=3",
                      lambda s=s: emb.ou_star_partition_batch(0.5, 3, m, s),
                      {"a": 0.5, "seed": s}))
    s = _seed(rng)
    ops.append(_batch("stable star leaves=3",
                      lambda s=s: emb.stable_star_partition_batch(1.2, 0.5, 3, m, s),
                      {"alpha": 1.2, "a": 0.5, "seed": s}))

    n, p = 5, 0.3
    q, nu = _dirichlet_law(rng, n, p)
    dist, s = {oracle.key(b): float(w) for b, w in q.items()}, _seed(rng)

    def check_color(result):
        samples, law = result
        if samples.shape != (COLOR_SAMPLES, n):
            return f"samples have shape {samples.shape}", 0.0
        rows = samples.astype(np.int64) @ (1 << np.arange(n - 1, -1, -1))
        freq = np.bincount(rows, minlength=2 ** n) / COLOR_SAMPLES
        if not np.array_equal(freq, np.asarray(law.probs)):
            return "returned law does not match the returned samples", 0.0
        return oracle.empirical_problem(freq, nu, COLOR_SAMPLES), float(COLOR_SAMPLES)

    ops.append(Op("color process n=5 p=0.3",
                  lambda: partitions.simulate_color_process(
                      partitions.PartitionDistribution(n, dist), p, COLOR_SAMPLES, s),
                  check_color, "within SE", {"q": dist, "seed": s}))
    return ops


# -- cli: in-process dcrep.cli.main --------------------------------------------

def _command(name, argv, out, check_output, throughput=False) -> Op:
    def call():
        try:
            return cli.main(argv + ["--out", out])
        except SystemExit as exc:  # argparse rejects bad flags by exiting
            return exc.code

    def check(code):
        if code != 0:
            return f"exit code {code}", 0.0
        return check_output(out)

    return Op(name, call, check, "exit 0", {"argv": argv}, throughput=throughput,
              tags={"subcommand": argv[0]})


def _json_out(path) -> dict:
    with open(path) as fh:
        return json.load(fh)["results"]


def cli_round(rng, tmpdir) -> list[Op]:
    ops = []

    def out(name):
        return os.path.join(tmpdir, name)

    for scan, problem in (
            ("ab", lambda path: oracle.scan_ab_problem(path, SCAN_STEPS["ab"])),
            ("theta", lambda path: oracle.scan_theta_problem(path, SCAN_STEPS["theta"]))):
        ops.append(_command(f"scan {scan}",
                            ["scan", "--scan", scan, "--a-step", str(SCAN_STEPS[scan])],
                            out(f"scan-{scan}.csv"), problem, throughput=True))
    a_alpha = float(rng.uniform(0.2, 0.8))
    ops.append(_command("scan alpha",
                        ["scan", "--scan", "alpha", "--a-step", str(SCAN_STEPS["alpha"]),
                         "--a", repr(a_alpha)],
                        out("scan-alpha.csv"),
                        lambda path: oracle.scan_alpha_problem(path, SCAN_STEPS["alpha"], a_alpha),
                        throughput=True))
    ops += [_analyze(rng, out("analyze.json")), _solve(rng, out("solve.json")),
            _asymptotics(rng, out("asymptotics.json"))]

    ops += [_simulate(rng, out(f"simulate-{k}.json")) for k in range(SIMULATIONS)]
    return ops


def _simulate(rng, path) -> Op:
    """simulate the OU chain: the sign law of a Gaussian chain has a closed form."""
    a, s = float(rng.uniform(0.2, 0.8)), _seed(rng)

    def check(path):
        cells = {e["key"]: e["p"] for e in _json_out(path)["sign_law"]["entries"]}
        emp = np.array([cells[format(i, "03b")] for i in range(8)])
        return oracle.empirical_problem(emp, oracle.ou_chain3_law(a), CLI_SIM_SAMPLES), 0.0

    return _command("simulate ou n=3",
                    ["simulate", "--simulator", "ou", "--samples", str(CLI_SIM_SAMPLES),
                     "--a", repr(a), "--n", "3", "--seed", str(s)], path, check)


def _analyze(rng, path) -> Op:
    """analyze an (a, b) matrix: its large-h verdict has a closed form."""
    a = float(rng.uniform(0.05, 0.7))
    b = float(rng.uniform(max(0.01, 2 * a * a - 0.95), 0.95))
    want = "ColorRep" if (2 * a - 1 <= b) or ((2 * a - 1) ** 2 < b) else "NoColorRep"

    def check(path):
        verdict = _json_out(path)["large_h"]["verdict"]
        return (None if verdict == want else f"large-h verdict {verdict}, expected {want}"), 0.0

    cov = [[1.0, a, a], [a, 1.0, b], [a, b, 1.0]]
    return _command("analyze ab", ["analyze", "--model", json.dumps({"a": cov})], path, check)


def _solve(rng, path) -> Op:
    """solve an n = 5 law that is a color process by construction."""
    n, p = 5, float(rng.choice([0.3, 0.5]))
    _, nu = _dirichlet_law(rng, n, p)
    law = {"n": n, "entries": [{"key": format(i, f"0{n}b"), "p": float(v)}
                               for i, v in enumerate(nu)]}

    def check(path):
        res = _json_out(path)["lp"]
        if res["status"] != "Feasible":
            return f"verdict {res['status']}, expected Feasible", 0.0
        return oracle.q_problem(res["q"], nu, n, 1e-8), 0.0

    return _command(f"solve n={n}", ["solve", "--model", json.dumps(law)], path, check)


def _asymptotics(rng, path) -> Op:
    """asymptotics of a stable common-shock model: the Gamma functional's root is 1/2."""
    a, alpha = float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.3, 1.9))
    c = (1.0 - a ** alpha) ** (1.0 / alpha)
    loadings = [[a, c, 0.0, 0.0], [a, 0.0, c, 0.0], [a, 0.0, 0.0, c]]

    def check(path):
        root = _json_out(path)["phase_transition_alpha"]
        return (None if abs(root - 0.5) <= 1e-6 else f"phase transition at {root}"), 0.0

    return _command("asymptotics stable",
                    ["asymptotics", "--model", json.dumps({"alpha": alpha, "loadings": loadings})],
                    path, check)


def round_ops(workload: str, seed: int, tmpdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "decide":
        return decide_round(rng)
    if workload == "decide_mc":
        return decide_mc_round(rng)
    if workload == "verify":
        return verify_round(rng)
    return cli_round(rng, tmpdir)


def known_defect_ops(workload: str, seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), 2 ** 32])
    if workload == "decide":
        return decide_known_defects(rng)
    if workload == "decide_mc":
        return decide_mc_known_defects(rng)
    return []


def sizes(workload: str) -> dict:
    """Per-workload sizes, recorded with every result."""
    common = {"deadline_s": DEADLINE_S}
    return {
        "decide": {"mix": DECIDE_MIX, **common},
        "decide_mc": {"mc_samples": MC_SAMPLES, "mc_samples_infeasible": MC_SAMPLES_INFEASIBLE,
                      **common},
        "verify": {"batch_samples": BATCH_SAMPLES, "color_samples": COLOR_SAMPLES, **common},
        "cli": {"scan_steps": SCAN_STEPS, "simulations": SIMULATIONS,
                "simulate_samples": CLI_SIM_SAMPLES, **common},
    }[workload]
