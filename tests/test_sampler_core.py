"""The tree sampler and the shared threshold-law MC loop against reference
implementations with one body per family and topology and one serial MC loop
per family: every array must match bit for bit, dtype included.  The same
holds for the cache-blocked MC kernels: the stable transform against its
textbook expression, the threshold laws at block edges and on any number of
threads, and the guide-table categorical draw against ``Generator.choice``."""

import math
import os
import signal
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest

from dcrep import partitions
from dcrep.embeddings import (EmbeddingBatch, ou_partition_batch, ou_star_partition_batch,
                              stable_chain_partition_batch, stable_star_partition_batch)
from dcrep.gaussian import (markov_chain_cov, sampling_factor, symmetric_plus_mean_cov,
                            threshold_law_mc)
from dcrep.partitions import (BELL, MC_BLOCK, MC_WORKERS, BinaryLaw,
                              PartitionDistribution, _categorical, _guide, simulate_color_process,
                              threshold_mc_law)
from dcrep.stable import (_cms, common_shock_model, corr2d_inequality_mc, sample_pos_stable,
                          sample_stable_vector, sample_sym_stable, stable_markov_model,
                          stable_threshold_law_mc, subordinator_scale)

from conftest import (block_streams, random_probability_q, reference_color_process,
                      reference_normals)

SEEDS = (0, 1, 2)


# -- references: one body per family and topology ------------------------------

def reference_path_batch(y, bridge_exponent, rng):
    m, n = y.shape
    signs = np.where(y > 0.0, 1, -1).astype(np.int8)
    cross_p = np.where(signs[:, :-1] == signs[:, 1:],
                       np.exp(-2.0 * np.clip(bridge_exponent, 0.0, None)), 1.0)
    crossing = rng.random((m, n - 1)) < cross_p if n > 1 else np.zeros((m, 0), bool)
    labels = np.zeros((m, n), dtype=np.int16)
    if n > 1:
        labels[:, 1:] = np.cumsum(crossing, axis=1)
    return EmbeddingBatch(signs, labels, cross_p, values=y)


def reference_star_batch(y, expo, rng):
    m, n1 = y.shape
    signs = np.where(y > 0.0, 1, -1).astype(np.int8)
    cross_p = np.where(signs[:, :1] == signs[:, 1:],
                       np.exp(-2.0 * np.clip(expo, 0.0, None)), 1.0)
    crossing = rng.random((m, n1 - 1)) < cross_p
    labels = np.zeros((m, n1), dtype=np.int16)
    labels[:, 1:] = np.where(crossing, np.cumsum(crossing, axis=1), 0)
    return EmbeddingBatch(signs, labels, cross_p, topology="star", values=y)


def reference_ou_path(a, n, m, seed):
    rng = np.random.default_rng(seed)
    y = np.empty((m, n))
    y[:, 0] = reference_normals(rng, m)
    c = math.sqrt(1.0 - a * a)
    for i in range(1, n):
        y[:, i] = a * y[:, i - 1] + c * reference_normals(rng, m)
    expo = a * y[:, :-1] * y[:, 1:] / (1.0 - a * a) if n > 1 else np.zeros((m, 0))
    return reference_path_batch(y, expo, rng)


def reference_stable_path(alpha, a, n, m, seed):
    rng = np.random.default_rng(seed)
    c = (1.0 - a ** alpha) ** (1.0 / alpha)
    scale = subordinator_scale(alpha)
    y = np.empty((m, n))
    expo = np.empty((m, max(n - 1, 0)))
    y[:, 0] = sample_sym_stable(alpha, 1.0, m, rng)
    for i in range(1, n):
        s = sample_pos_stable(alpha / 2.0, scale, m, rng)
        y[:, i] = a * y[:, i - 1] + c * np.sqrt(s) * reference_normals(rng, m)
        expo[:, i - 1] = a * y[:, i - 1] * y[:, i] / (c * c * s)
    return reference_path_batch(y, expo, rng)


def reference_ou_star(a, leaves, m, seed):
    rng = np.random.default_rng(seed)
    c = math.sqrt(1.0 - a * a)
    y = np.empty((m, leaves + 1))
    y[:, 0] = reference_normals(rng, m)
    for j in range(1, leaves + 1):
        y[:, j] = a * y[:, 0] + c * reference_normals(rng, m)
    expo = a * y[:, :1] * y[:, 1:] / (1.0 - a * a)
    return reference_star_batch(y, expo, rng)


def reference_stable_star(alpha, a, leaves, m, seed):
    rng = np.random.default_rng(seed)
    c = (1.0 - a ** alpha) ** (1.0 / alpha)
    scale = subordinator_scale(alpha)
    y = np.empty((m, leaves + 1))
    expo = np.empty((m, leaves))
    y[:, 0] = sample_sym_stable(alpha, 1.0, m, rng)
    for j in range(1, leaves + 1):
        s = sample_pos_stable(alpha / 2.0, scale, m, rng)
        y[:, j] = a * y[:, 0] + c * np.sqrt(s) * reference_normals(rng, m)
        expo[:, j - 1] = a * y[:, 0] * y[:, j] / (c * c * s)
    return reference_star_batch(y, expo, rng)


def reference_sign_law(batch):
    bits = (batch.signs > 0).astype(np.int64)
    pow2 = 1 << np.arange(batch.n - 1, -1, -1)
    return BinaryLaw.from_counts(np.bincount(bits @ pow2, minlength=2 ** batch.n), batch.m)


def drawn_rows(k, h):
    """Rows a block of k samples draws: at h = 0 one per reflected pair,
    the last one unpaired when k is odd."""
    return k - k // 2 if h == 0.0 else k


def sample_bits(x, k, h):
    """The k sample rows of a block whose draws are x, thresholded at h: at
    h = 0 the rows x, then the reflections -x of the first k // 2 of them."""
    if h == 0.0:
        x = np.concatenate([x, -x[:k // 2]])
    assert len(x) == k
    return (x > h).astype(np.int64)


def reference_gaussian_mc(cov, h, m, seed):
    ell = sampling_factor(cov)
    n = cov.n
    pow2 = 1 << np.arange(n - 1, -1, -1)
    counts = np.zeros(2 ** n, dtype=np.int64)
    for k, rng in block_streams(m, seed):
        rows = drawn_rows(k, h)
        z = reference_normals(rng, rows * ell.shape[1]).reshape(rows, ell.shape[1])
        bits = sample_bits(z @ ell.T, k, h)
        counts += np.bincount(bits @ pow2, minlength=2 ** n)
    return BinaryLaw.from_counts(counts, m)


def reference_stable_mc(model, h, m, seed):
    n = model.d
    pow2 = 1 << np.arange(n - 1, -1, -1)
    counts = np.zeros(2 ** n, dtype=np.int64)
    for k, rng in block_streams(m, seed):
        x = sample_stable_vector(model, drawn_rows(k, h), rng)
        bits = sample_bits(x, k, h)
        counts += np.bincount(bits @ pow2, minlength=2 ** n)
    return BinaryLaw.from_counts(counts, m)


# -- comparisons ----------------------------------------------------------------

def assert_same_arrays(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def assert_same_batch(got, want):
    assert got.topology == want.topology
    for name in ("signs", "labels", "crossing_probs", "values"):
        assert_same_arrays(getattr(got, name), getattr(want, name))


def assert_same_law(got, want):
    assert got.n == want.n
    assert_same_arrays(got.probs, want.probs)
    assert_same_arrays(got.stderr, want.stderr)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", range(1, 10))
def test_path_batches_match_reference(n, seed):
    m = 3000
    for got, want in [
        (ou_partition_batch(0.6, n, m, seed), reference_ou_path(0.6, n, m, seed)),
        (stable_chain_partition_batch(1.3, 0.5, n, m, seed),
         reference_stable_path(1.3, 0.5, n, m, seed)),
    ]:
        assert_same_batch(got, want)
        assert_same_law(got.empirical_sign_law(), reference_sign_law(want))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("leaves", range(1, 9))
def test_star_batches_match_reference(leaves, seed):
    m = 3000
    for got, want in [
        (ou_star_partition_batch(0.6, leaves, m, seed), reference_ou_star(0.6, leaves, m, seed)),
        (stable_star_partition_batch(0.8, 0.4, leaves, m, seed),
         reference_stable_star(0.8, 0.4, leaves, m, seed)),
    ]:
        assert_same_batch(got, want)
        assert_same_law(got.empirical_sign_law(), reference_sign_law(want))


def test_samplers_draw_from_a_passed_generator_as_the_reference():
    """A Generator seed is used in place, so what is left of it must match too."""
    for sample, reference in [
        (lambda rng: ou_partition_batch(0.5, 1, 100, rng),
         lambda rng: reference_ou_path(0.5, 1, 100, rng)),
        (lambda rng: stable_chain_partition_batch(1.5, 0.3, 4, 100, rng),
         lambda rng: reference_stable_path(1.5, 0.3, 4, 100, rng)),
        (lambda rng: stable_star_partition_batch(1.5, 0.3, 3, 100, rng),
         lambda rng: reference_stable_star(1.5, 0.3, 3, 100, rng)),
    ]:
        rng_got, rng_want = np.random.default_rng(5), np.random.default_rng(5)
        assert_same_batch(sample(rng_got), reference(rng_want))
        assert rng_got.random() == rng_want.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", range(1, 10))
def test_threshold_laws_match_reference_in_one_block(n, seed):
    m = 20_000
    cov = markov_chain_cov(n, 0.5)
    for h in (0.0, 0.7):
        assert_same_law(threshold_law_mc(cov, h, m, seed), reference_gaussian_mc(cov, h, m, seed))
    model = stable_markov_model(0.5, 1.2, n)
    assert_same_law(stable_threshold_law_mc(model, 0.0, m, seed),
                    reference_stable_mc(model, 0.0, m, seed))


def test_threshold_laws_match_reference_over_many_blocks():
    m = 2_500_001
    cov = markov_chain_cov(3, 0.5)
    assert_same_law(threshold_law_mc(cov, 0.3, m, 11), reference_gaussian_mc(cov, 0.3, m, 11))
    model = common_shock_model(0.5, 1.2, 3)
    assert_same_law(stable_threshold_law_mc(model, 0.3, m, 12),
                    reference_stable_mc(model, 0.3, m, 12))


# -- cache-blocked MC kernels ---------------------------------------------------

def reference_sym_stable(alpha, sigma, m, seed):
    """The symmetric Chambers-Mallows-Stuck transform as one whole-array
    expression, every factor from a tangent: sin(alpha u) = 2 T / (1 + T^2)
    with T = tan(alpha u / 2), cos(u)^(-1/alpha) = (1 + tan(u)^2)^(1/(2 alpha))
    and (cos(v) / w)^((1 - alpha)/alpha) = ((1 + tan(v)^2) w^2)^((alpha - 1)/(2 alpha))."""
    rng = np.random.default_rng(seed)
    if alpha == 2.0:
        return sigma * math.sqrt(2.0) * reference_normals(rng, m)
    u = (rng.random(m) - 0.5) * math.pi
    if alpha == 1.0:
        return sigma * np.tan(u)
    w = rng.exponential(1.0, m)
    t = np.tan(0.5 * alpha * u)
    return sigma * ((np.tan(u) ** 2 + 1.0) ** (0.5 / alpha) * t / (t ** 2 + 1.0) * 2.0
                    * ((np.tan((1.0 - alpha) * u) ** 2 + 1.0) * w ** 2)
                    ** ((alpha - 1.0) / (2.0 * alpha)))


@pytest.mark.parametrize("sigma", (1.0, 0.7))
@pytest.mark.parametrize("alpha", (0.4, 0.5, 2 / 3, 1.0, 1.2, 1.5, 2.0))
def test_sym_stable_matches_the_whole_array_expression(alpha, sigma):
    # alpha = 1/2 takes numpy's square and identity shortcuts for the powers
    # 2 and 1, which the in-place transform must take too
    assert_same_arrays(sample_sym_stable(alpha, sigma, 50_001, 4),
                       reference_sym_stable(alpha, sigma, 50_001, 4))


@pytest.mark.parametrize("m", (MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 10 ** 6 + 1))
def test_threshold_laws_match_reference_at_block_edges(m):
    """A partial block alone and after full ones, and one full block; the
    generator left over must match too, so the law draws exactly the
    reference's entropy from it."""
    cov = symmetric_plus_mean_cov(4, 0.0)   # rank 3: three normals per row
    tan_model = stable_markov_model(0.5, 1.0, 4)   # alpha = 1: no exponentials
    cms_model = stable_markov_model(0.5, 0.5, 4)
    for law, reference in [
        (lambda rng: threshold_law_mc(cov, 0.0, m, rng),
         lambda rng: reference_gaussian_mc(cov, 0.0, m, rng)),
        (lambda rng: stable_threshold_law_mc(tan_model, 0.2, m, rng),
         lambda rng: reference_stable_mc(tan_model, 0.2, m, rng)),
        (lambda rng: stable_threshold_law_mc(cms_model, 0.0, m, rng),
         lambda rng: reference_stable_mc(cms_model, 0.0, m, rng)),
    ]:
        rng_got, rng_want = np.random.default_rng(21), np.random.default_rng(21)
        assert_same_law(law(rng_got), reference(rng_want))
        assert rng_got.random() == rng_want.random()


# -- the tangent transform against the sin/cos textbook form --------------------

ORACLE_ALPHAS = (0.1, 0.4, 0.5, 0.8, 1.2, 1.5, 1.9, 1.99)
# u = -pi/2 (U = 0) and the largest angle below pi/2 (U = 1 - 2^-53)
END_ANGLES = (-0.5 * math.pi, (0.5 - 2.0 ** -53) * math.pi)


def sincos_cms(alpha, u, w, theta0=0.0):
    """The textbook Chambers-Mallows-Stuck expression with sin and cos."""
    phi = u + theta0
    return (np.sin(alpha * phi) / np.cos(u) ** (1.0 / alpha)
            * (np.cos(u - alpha * phi if theta0 else (1.0 - alpha) * u) / w)
            ** ((1.0 - alpha) / alpha))


def reference_sincos_sym_stable(alpha, m, rng):
    if alpha == 2.0:
        return math.sqrt(2.0) * reference_normals(rng, m)
    u = (rng.random(m) - 0.5) * math.pi
    if alpha == 1.0:
        return np.tan(u)
    return sincos_cms(alpha, u, rng.exponential(1.0, m))


def ulp_errors(alpha, u, w, values):
    """|value - exact| in ulps of the exact transform of the float inputs,
    which mpmath evaluates in 40 digits."""
    errors = np.empty(len(values))
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        for i, (ui, wi, x) in enumerate(zip(u, w, values)):
            ui, wi = mpmath.mpf(ui), mpmath.mpf(wi)
            exact = (mpmath.sin(a * ui) / mpmath.cos(ui) ** (1 / a)
                     * (mpmath.cos((1 - a) * ui) / wi) ** ((1 - a) / a))
            errors[i] = abs((mpmath.mpf(x) - exact) / np.spacing(abs(float(exact))))
    return errors


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_cms_is_as_accurate_as_the_sin_cos_form(alpha):
    """A power x^e multiplies its base's relative error by e, and the two forms
    round their bases differently (tan, square and add against cos and
    divide), so at one point their errors may differ by a few ulps per unit
    of the exponents 1/alpha and |1 - alpha|/alpha, plus one for the sine:
    the bound allows 4 ulps per unit, 80 ulps at alpha = 0.1 and 8 near 1."""
    rng = np.random.default_rng(17)
    u = np.r_[(rng.random(600) - 0.5) * math.pi, END_ANGLES]
    w = np.r_[rng.exponential(1.0, 600), 1.0, 1.0]
    got = _cms(alpha, u.copy(), w.copy())
    want = sincos_cms(alpha, u, w)
    assert np.array_equal(np.sign(got), np.sign(want))
    slack = 4.0 * (1.0 + (1.0 + abs(1.0 - alpha)) / alpha)
    assert np.all(ulp_errors(alpha, u, w, got) <= ulp_errors(alpha, u, w, want) + slack)


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_cms_is_finite_at_the_end_angles_where_the_sin_cos_form_is(alpha):
    # w = 0 can come out of the exponential sampler; 1e-19 is about its
    # smallest nonzero draw
    u, w = np.meshgrid(END_ANGLES, (0.0, 1e-19, 1e-3, 1.0, 50.0))
    u, w = u.ravel(), w.ravel()
    with np.errstate(divide="ignore", over="ignore"):
        got = _cms(alpha, u.copy(), w.copy())
        want = sincos_cms(alpha, u, w)
    assert np.all(np.isfinite(got) | ~np.isfinite(want))
    assert np.array_equal(np.sign(got), np.sign(want))


@pytest.mark.parametrize("a", (0.05, 0.35, 0.5, 0.65, 0.95))
def test_pos_stable_matches_the_sin_cos_form(a):
    rng = np.random.default_rng(9)
    u = (rng.random(20_000) - 0.5) * math.pi
    w = rng.exponential(1.0, 20_000)
    want = 1.3 * math.cos(math.pi * a / 2.0) ** (-1.0 / a) * sincos_cms(a, u, w, math.pi / 2.0)
    rng_got = np.random.default_rng(9)
    got = sample_pos_stable(a, 1.3, 20_000, rng_got)
    assert np.all(got > 0.0)
    assert np.max(np.abs(got / want - 1.0)) < 1e-13
    assert rng_got.random() == rng.random()


def test_sym_stable_leaves_the_generator_as_the_sin_cos_form_does():
    for alpha in (0.5, 1.0, 1.5, 2.0):
        rng_got, rng_want = np.random.default_rng(3), np.random.default_rng(3)
        got = sample_sym_stable(alpha, 1.0, 1001, rng_got)
        want = reference_sincos_sym_stable(alpha, 1001, rng_want)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert rng_got.random() == rng_want.random()


def reference_sincos_stable_mc(model, h, m, seed):
    """The threshold law by the sin/cos form, block by block: each block draws
    its angles, then its exponentials."""
    n, cols = model.d, model.m
    pow2 = 1 << np.arange(n - 1, -1, -1)
    counts = np.zeros(2 ** n, dtype=np.int64)
    for k, rng in block_streams(m, seed):
        rows = drawn_rows(k, h)
        s = reference_sincos_sym_stable(model.alpha, rows * cols, rng)
        bits = sample_bits(s.reshape(rows, cols) @ model.loadings.T, k, h)
        counts += np.bincount(bits @ pow2, minlength=2 ** n)
    return BinaryLaw.from_counts(counts, m)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", (common_shock_model(0.5, 0.4, 3),
                                   common_shock_model(0.5, 1.5, 3),
                                   stable_markov_model(0.5, 1.2, 5)))
def test_stable_laws_match_the_sin_cos_form(model, seed):
    """Only the last bits of each variate move, so no sign changes and the
    counts agree."""
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_same_law(stable_threshold_law_mc(model, 0.0, 10 ** 5, rng_got),
                    reference_sincos_stable_mc(model, 0.0, 10 ** 5, rng_want))
    assert rng_got.random() == rng_want.random()


@contextmanager
def counted_on(workers, counter="pattern_counts"):
    """Count the MC blocks on a pool of ``workers`` threads, whatever this
    machine's CPUs; yields the set of threads that called ``counter``, the
    function of ``partitions`` that each block calls once:
    ``pattern_counts`` in ``threshold_mc_law``, ``_categorical`` in
    ``simulate_color_process``."""
    threads = set()
    count = getattr(partitions, counter)

    def counting(*args):
        threads.add(threading.get_ident())
        return count(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, counter, counting)
        mp.setattr(partitions, "MC_WORKERS", workers)
        yield threads


THREADED_LAWS = {
    "gaussian": (lambda m: threshold_law_mc(symmetric_plus_mean_cov(4, 0.0), 0.2, m, 31),
                 lambda m: reference_gaussian_mc(symmetric_plus_mean_cov(4, 0.0), 0.2, m, 31)),
    "gaussian h=0": (lambda m: threshold_law_mc(symmetric_plus_mean_cov(4, 0.0), 0.0, m, 31),
                     lambda m: reference_gaussian_mc(symmetric_plus_mean_cov(4, 0.0), 0.0, m, 31)),
    "stable": (lambda m: stable_threshold_law_mc(stable_markov_model(0.5, 1.2, 4), 0.0, m, 32),
               lambda m: reference_stable_mc(stable_markov_model(0.5, 1.2, 4), 0.0, m, 32)),
}


@pytest.mark.parametrize("m", (MC_BLOCK - 1, MC_BLOCK + 1, 10 ** 6 + 1))
@pytest.mark.parametrize("law, reference", THREADED_LAWS.values(), ids=THREADED_LAWS)
def test_threshold_laws_are_the_same_on_any_number_of_threads(law, reference, m):
    """The serial reference loop, bit for bit, on one to three threads."""
    want = reference(m)
    for workers in (1, 2, 3):
        with counted_on(workers) as threads:
            assert_same_law(law(m), want)
        # every block is counted on the pool, even a single one
        assert threads and threading.get_ident() not in threads
        assert len(threads) <= workers


COLOR_Q = random_probability_q(np.random.default_rng(26), 5)


@pytest.mark.parametrize("m", (MC_BLOCK - 1, MC_BLOCK + 1, 10 ** 6 + 1))
def test_the_color_process_is_the_same_on_any_number_of_threads(m):
    """The serial per-block ``choice`` reference, samples and law bit for bit,
    on one to three threads."""
    want, want_law = reference_color_process(dict(COLOR_Q.weights), 5, 0.3, m, 33)
    for workers in (1, 2, 3):
        with counted_on(workers, "_categorical") as threads:
            samples, law = simulate_color_process(COLOR_Q, 0.3, m, 33)
        assert_same_arrays(samples, want)
        assert_same_law(law, want_law)
        assert threads and threading.get_ident() not in threads
        assert len(threads) <= workers


# each MC sampler and the function of ``partitions`` that each of its blocks
# calls once, by name
RAISING_BLOCKS = {
    "threshold_mc_law": ("pattern_counts", lambda: threshold_mc_law(
        lambda k, rng: np.zeros((k, 2)), 2, 0.0, 100 * MC_BLOCK, 0)),
    "simulate_color_process": ("_categorical", lambda: simulate_color_process(
        COLOR_Q, 0.3, 100 * MC_BLOCK, 0)),
}


@pytest.mark.parametrize("counter, sample", RAISING_BLOCKS.values(), ids=RAISING_BLOCKS)
def test_a_block_that_raises_passes_its_error_out_and_leaves_no_block_queued(
        counter, sample, monkeypatch):
    """At most two blocks per thread are ever submitted, and when one raises,
    each of them has run or been cancelled before the error comes out."""
    calls, futures = [], []

    def failing(*args):
        calls.append(args)
        raise RuntimeError("block failed")

    class Pool(ThreadPoolExecutor):
        def submit(self, fn, *args):
            futures.append(super().submit(fn, *args))
            return futures[-1]

    pool = Pool(2)
    monkeypatch.setattr(partitions, "MC_WORKERS", 2)
    monkeypatch.setattr(partitions, "_mc_pool", lambda workers: pool)
    monkeypatch.setattr(partitions, counter, failing)
    with pytest.raises(RuntimeError, match="block failed"):
        sample()
    assert 1 <= len(futures) <= 2 * 2
    assert all(future.done() for future in futures)
    started = len(calls)
    pool.shutdown()     # runs whatever was left queued
    assert len(calls) == started


V2, V1_QUOTA, V1_PERIOD = ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                           "/sys/fs/cgroup/cpu/cpu.cfs_period_us")
QUOTAS = {
    "v2 no quota": ({V2: "max 100000"}, None),
    "v2 one and a half CPUs": ({V2: "150000 100000"}, 2),
    "v2 half a CPU": ({V2: "50000 100000"}, 1),
    "v2 a sliver": ({V2: "1000 100000"}, 1),
    "v2 before v1": ({V2: "max 100000", V1_QUOTA: "100000", V1_PERIOD: "100000"}, None),
    "v1 no quota": ({V1_QUOTA: "-1", V1_PERIOD: "100000"}, None),
    "v1 three CPUs": ({V1_QUOTA: "300000", V1_PERIOD: "100000"}, 3),
    "v1 no period": ({V1_QUOTA: "300000"}, None),
    "unreadable": ({}, None),
    "malformed": ({V2: "lots"}, None),
}


@pytest.mark.parametrize("files, cpus", QUOTAS.values(), ids=QUOTAS)
def test_mc_workers_honour_a_cgroup_cpu_quota(files, cpus, monkeypatch):
    """ceil(quota / period) CPUs and at least one, capping the affinity
    count; no quota leaves the affinity count."""
    monkeypatch.setattr(partitions, "_read_line", files.get)
    assert partitions._cpu_quota() == cpus
    for affinity in (1, 2, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                            raising=False)
        want = affinity if cpus is None else min(affinity, cpus)
        assert partitions._mc_workers() == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_child_forked_after_the_pool_is_built_counts_on_its_own(monkeypatch):
    """The child has none of the parent's pool threads: counting on that pool
    would wait for ever."""
    monkeypatch.setattr(partitions, "MC_WORKERS", 2)
    law = THREADED_LAWS["gaussian"][0]
    want = law(10 ** 5)
    pid = os.fork()
    if pid == 0:    # the child must never return into pytest
        code = 1
        try:
            code = 0 if np.array_equal(law(10 ** 5).probs, want.probs) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while not (done := os.waitpid(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.01)
    if not done[0]:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] and os.waitstatus_to_exitcode(done[1]) == 0


def test_mc_laws_peak_memory_is_bounded():
    """Every array is one block's, and two threads count blocks at once."""
    tracemalloc.start()
    try:
        with counted_on(2):
            stable_threshold_law_mc(stable_markov_model(0.5, 1.2, 5), 0.0, 10 ** 6, 3)
            stable_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            threshold_law_mc(symmetric_plus_mean_cov(4, 0.0), 0.0, 10 ** 7, 3)
            gaussian_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stable_peak < 16 * 2 ** 20
    assert gaussian_peak < 16 * 2 ** 20


# the peak of one more block at once, above the two-thread bounds of
# ``test_mc_laws_peak_memory_is_bounded`` and ``test_simulate_peak_memory_at_max_n``:
# 3.8, 1.8 and 0.6 MiB measured per thread on pools of one to six threads
BLOCK_ALLOWANCE_MIB = {"stable": 4, "gaussian": 2, "color": 1}


def test_mc_peak_memory_is_bounded_on_the_real_pool():
    """Both threshold samplers and the n = 9 color process on the
    ``MC_WORKERS`` threads of this machine: the two-thread bounds plus one
    block per thread beyond two."""
    q = PartitionDistribution.from_vector(9, np.random.default_rng(9).dirichlet(np.ones(BELL[9])))
    simulate_color_process(q, 0.3, 1000, 0)
    laws = {
        "stable": (16, lambda: stable_threshold_law_mc(stable_markov_model(0.5, 1.2, 5), 0.0,
                                                       10 ** 6, 3)),
        "gaussian": (16, lambda: threshold_law_mc(symmetric_plus_mean_cov(4, 0.0), 0.0,
                                                  10 ** 7, 3)),
        "color": (24, lambda: simulate_color_process(q, 0.3, 10 ** 6, 1)),
    }
    extra = max(MC_WORKERS - 2, 0)
    for name, (bound_mib, law) in laws.items():
        tracemalloc.start()
        try:
            law()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (bound_mib + extra * BLOCK_ALLOWANCE_MIB[name]) * 2 ** 20, name


def assert_categorical_matches_choice(weights, m=20_000):
    rng_got, rng_want = np.random.default_rng(8), np.random.default_rng(8)
    cdf = weights.copy()
    got = _categorical(cdf, _guide(cdf), m, rng_got)
    want = rng_want.choice(len(weights), size=m, p=weights)
    assert np.array_equal(got, want)
    assert rng_got.random() == rng_want.random()


@pytest.mark.parametrize("n", range(1, 10))
def test_categorical_matches_choice_on_dirichlet_weights(n):
    assert_categorical_matches_choice(np.random.default_rng(n).dirichlet(np.ones(BELL[n])))


def test_categorical_matches_choice_on_one_partition():
    assert_categorical_matches_choice(np.array([1.0]))


def test_categorical_matches_choice_next_to_tiny_weights():
    assert_categorical_matches_choice(np.array([1e-300, 0.3, 1e-300, 1e-300, 0.7, 1e-300]))


def test_categorical_matches_choice_with_many_steps_in_one_guide_cell():
    # 1000 steps of 1e-8 right after 0.4: a guide cell is about 1.2e-4 wide
    weights = np.r_[0.4, np.full(1000, 1e-8), 0.6 - 1e-5]
    assert_categorical_matches_choice(weights, m=10 ** 6)


@pytest.mark.parametrize("ulps", (-3, 3))
def test_categorical_matches_choice_on_weights_a_few_ulps_off_one(ulps):
    weights = np.random.default_rng(5).dirichlet(np.ones(52))
    weights[-1] = 1.0 - np.sum(weights[:-1]) + ulps * np.finfo(float).eps
    assert np.cumsum(weights)[-1] != 1.0
    assert_categorical_matches_choice(weights)


# -- the seed contract ---------------------------------------------------------

SAMPLERS = {
    "threshold_law_mc": lambda seed: threshold_law_mc(markov_chain_cov(4, 0.5), 0.3, 3000, seed),
    "stable_threshold_law_mc": lambda seed: stable_threshold_law_mc(
        common_shock_model(0.5, 1.2), 0.0, 3000, seed),
    "simulate_color_process": lambda seed: simulate_color_process(
        PartitionDistribution.from_vector(3, np.full(5, 0.2)), 0.3, 3000, seed),
    "ou_partition_batch": lambda seed: ou_partition_batch(0.6, 4, 500, seed),
    "stable_chain_partition_batch": lambda seed: stable_chain_partition_batch(
        1.3, 0.6, 4, 500, seed),
    "ou_star_partition_batch": lambda seed: ou_star_partition_batch(0.6, 3, 500, seed),
    "stable_star_partition_batch": lambda seed: stable_star_partition_batch(
        1.3, 0.6, 3, 500, seed),
    "sample_sym_stable": lambda seed: sample_sym_stable(1.3, 1.0, 500, seed),
    "sample_pos_stable": lambda seed: sample_pos_stable(0.65, 1.0, 500, seed),
    "sample_stable_vector": lambda seed: sample_stable_vector(
        stable_markov_model(0.5, 1.3), 500, seed),
    "corr2d_inequality_mc": lambda seed: corr2d_inequality_mc(0.3, 1.0, 0.0, 3000, seed),
}


def sampler_arrays(out) -> list[np.ndarray]:
    """Every array a sampler's output holds, in order."""
    if isinstance(out, tuple):
        return [a for part in out for a in sampler_arrays(part)]
    if isinstance(out, BinaryLaw):
        return [out.probs, out.stderr]
    if isinstance(out, EmbeddingBatch):
        return [out.signs, out.labels, out.crossing_probs, out.values]
    return [np.asarray(out)]


def same_arrays(got, expect) -> bool:
    return len(got) == len(expect) and all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, expect))


@pytest.mark.parametrize("draw", SAMPLERS.values(), ids=SAMPLERS)
def test_a_seed_draws_as_its_generator_and_a_generator_is_used_in_place(draw):
    """Every sampler reads an int seed s as ``np.random.default_rng(s)``, and
    draws from a Generator it is given, not from a copy: the Generator's
    state moves on, and a second call continues its stream."""
    for seed in SEEDS:
        expect = sampler_arrays(draw(seed))
        rng = np.random.default_rng(seed)
        assert same_arrays(sampler_arrays(draw(rng)), expect)
        assert rng.bit_generator.state != np.random.default_rng(seed).bit_generator.state
        assert not same_arrays(sampler_arrays(draw(rng)), expect)
