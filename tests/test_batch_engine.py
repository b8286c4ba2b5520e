"""The lockstep batch engine against one-path runs and the per-replica bootstrap."""

import tracemalloc

import numpy as np
import pytest
from helpers import orthonormal_design, path_of, reference_collect, use_naive_bootstrap

import larinfer.bootstrap as bootstrap
from larinfer.bootstrap import (
    BootstrapConfig,
    bootstrap_intervals,
    bootstrap_setup,
    chunk_rows,
    interval_sets,
)
from larinfer.exceptions import RankDeficient
from larinfer.identities import ols_on_active, with_response
from larinfer.inference import build_inference_report, sigma_hat
from larinfer.path import lar_batch, standardize


def _max_rel_diff(new, ref) -> float:
    new, ref = np.asarray(new), np.asarray(ref)
    if ref.size == 0:
        return 0.0
    return float(np.max(np.abs(new - ref)) / max(1.0, float(np.max(np.abs(ref)))))


def _collect(data, path, m_bar, cfg):
    """Replica statistics of the sample response alone: (T*, B*, entry steps)."""
    setup = bootstrap_setup(data, data.y[None], [path], [m_bar],
                            sigma_hat(data, data.y[None] * data.response_scale))
    return next(bootstrap._collect(setup, [cfg]))


def _batch_design(seed: int):
    """A seeded design and a batch of responses whose paths stop at different steps.

    The shape cycles with the seed: 0 generic, 1 a near-collinear pair
    (correlation about 0.999), 2 p close to n, 3 an orthonormal design whose
    responses have equal coefficients, so that columns tie for entry.  Each
    batch mixes noiseless means on supports of different sizes, which stop
    early at zero_tol = 1e-10, with noisy responses, which run all p steps.
    """
    rng = np.random.default_rng([30, seed])
    shape = seed % 4
    if shape == 2:
        p = int(rng.integers(3, 25))
        n = p + int(rng.integers(2, 4))
    else:
        n = int(rng.integers(30, 300))
        p = int(rng.integers(3, min(25, n - 2)))
    X = orthonormal_design(rng, n, p) if shape == 3 else rng.standard_normal((n, p))
    if shape == 1:
        X[:, 1] = X[:, 0] + 0.05 * rng.standard_normal(n)
    data = standardize(X, rng.standard_normal(n), center=False)
    responses = []
    for m in range(1, min(p, 5) + 1):
        beta = np.zeros(p)
        support = rng.choice(p, m, replace=False)
        if shape == 3:
            beta[support] = rng.choice([-1.0, 1.0], m)
        else:
            beta[support] = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
        responses.append(data.X @ beta)
        responses.append(data.X @ beta + 0.3 * rng.standard_normal(n))
    return data, np.array(responses)


@pytest.mark.parametrize("seed", range(32))
def test_rows_match_single_paths(seed):
    data, Y = _batch_design(seed)
    zero_tol = 1e-10
    batch = lar_batch(Y @ data.X, data.gram, zero_tol, traces=True)
    stops = set()
    for r, y in enumerate(Y):
        ref = path_of(data, y, zero_tol=zero_tol)
        m = ref.terminated_at
        stops.add(m)
        assert batch.terminated_at[r] == m
        assert batch.entrants[r, :m].tolist() == ref.entrants
        assert np.all(batch.entrants[r, m:] == -1)
        assert np.array_equal(batch.signs[r, :m], ref.signs)
        assert [k + 1 for k in np.flatnonzero(batch.ties[r])] == ref.tie_steps
        assert _max_rel_diff(batch.correlations[r, :m], ref.correlations) <= 1e-12
        assert _max_rel_diff(batch.angles[r, :m], ref.angles) <= 1e-12
        assert _max_rel_diff(batch.coefficients[r, :m], ref.coefficients) <= 1e-12
        for k in range(m):
            assert _max_rel_diff(batch.correlations_all[r, k], ref.correlations_all[k]) <= 1e-12
            assert _max_rel_diff(batch.equiangular_dots[r, k], ref.equiangular_dots[k]) <= 1e-12
    assert len(stops) > 1  # rows leave the batch at different steps


@pytest.mark.parametrize("seed", range(32))
def test_refits_are_least_squares_on_the_active_columns(seed):
    """Each kept refit row is the direct least-squares solve on the step's
    active columns, also on rows that stop before the last kept step, and
    zero past a row's last step."""
    data, Y = _batch_design(seed)
    steps = min(3, data.p - 1)
    batch = lar_batch(Y @ data.X, data.gram, 1e-10, coef_steps=steps)
    assert batch.refits.shape == (len(Y), steps, data.p)
    for r, y in enumerate(Y):
        m = min(int(batch.terminated_at[r]), steps)
        for k in range(m):
            ref = ols_on_active(data, batch.entrants[r, : k + 1], y)
            assert _max_rel_diff(batch.refits[r, k], ref) <= 1e-12
        assert not batch.refits[r, m:].any()
    assert (batch.terminated_at < steps).any()  # some rows stop early


def test_ties_are_flagged_and_lowest_index_wins():
    rng = np.random.default_rng(31)
    data = standardize(orthonormal_design(rng, 40, 4), rng.standard_normal(40), center=False)
    # a tie at step 1, no tie, and a tie between columns 1 and 2 at step 2
    Y = np.array([data.X @ [0.0, 1.0, 0.0, 1.0], data.X @ [2.0, 0.0, 1.0, 0.0],
                  data.X @ [2.0, 1.0, 1.0, 0.0]])
    batch = lar_batch(Y @ data.X, data.gram, 1e-10)
    assert batch.entrants[0, :2].tolist() == [1, 3]
    assert batch.entrants[2, :3].tolist() == [0, 1, 2]
    assert batch.ties[:, :2].tolist() == [[True, False], [False, False], [False, True]]


def test_coefficient_rows_can_be_cut_short():
    rng = np.random.default_rng(32)
    data = standardize(rng.standard_normal((80, 6)), rng.standard_normal(80))
    Y = rng.standard_normal((3, 80))
    full = lar_batch(Y @ data.X, data.gram)
    short = lar_batch(Y @ data.X, data.gram, coef_steps=2)
    assert short.coefficients.shape == (3, 2, 6)
    assert np.array_equal(short.coefficients, full.coefficients[:, :2])
    assert np.array_equal(short.refits, full.refits[:, :2])
    assert np.array_equal(short.correlations, full.correlations)
    assert full.correlations_all is None and full.equiangular_dots is None


def test_failing_row_is_named():
    # columns 0 and 2 are parallel up to 1e-12: the row that enters both fails
    R = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-12]])
    start = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5]])
    with pytest.raises(RankDeficient, match=r"\(replica 7\)"):
        lar_batch(start, R.T @ R, 1e-10, row_name=lambda i: f"replica {i + 6}")
    batch = lar_batch(start[:1], R.T @ R, 1e-10)
    assert batch.terminated_at.tolist() == [1]


def _noiseless(rng):
    X = rng.standard_normal((40, 4))
    return standardize(X, X @ np.array([2.0, -1.0, 0.0, 0.0]), center=False)


def _tall(rng):
    X = rng.standard_normal((2000, 30))
    beta = np.zeros(30)
    beta[:4] = [1.0, -0.5, 0.3, 0.2]
    return standardize(X, X @ beta + rng.standard_normal(2000))


def _case(name, diabetes):
    """(data, m_bar, naive, draws, seed) of one bootstrap comparison."""
    data = diabetes[1]
    if name == "tall":
        data = _tall(np.random.default_rng(33))
    elif name == "noiseless":
        return _noiseless(np.random.default_rng(4)), 2, False, 50, 9
    m_bar = build_inference_report(data, path_of(data, data.y)).m_bar
    if name == "m_bar=0":
        m_bar = 0
    return data, m_bar, name == "naive", 200, 5


@pytest.mark.parametrize("name", ["diabetes", "tall", "naive", "m_bar=0", "noiseless"])
def test_collect_matches_per_replica_reference(name, diabetes, monkeypatch):
    data, m_bar, naive, draws, seed = _case(name, diabetes)
    path = path_of(data, data.y)
    use_naive_bootstrap(monkeypatch, naive)
    setup = bootstrap.bootstrap_setup(data, data.y[None], [path], [m_bar],
                                      sigma_hat(data, data.y[None] * data.response_scale))
    cfg = BootstrapConfig(draws=draws, seed=seed)
    t_new, b_new, e_new = next(bootstrap._collect(setup, [cfg]))
    t_ref, b_ref, e_ref = reference_collect(setup, cfg)
    assert np.array_equal(e_new, e_ref)
    if name != "noiseless":
        # on the zero-spread design every replica's errors are rounding
        # noise, and t* and b* are ratios of rounding noise; only the
        # intervals they produce are compared there
        assert _max_rel_diff(t_new, t_ref) <= 1e-10
        assert _max_rel_diff(b_new, b_ref) <= 1e-10

    iv = bootstrap_intervals(data, path, m_bar, cfg)
    # the reference statistics through the same interval assembly
    monkeypatch.setattr(bootstrap, "_collect", lambda setup, cfgs: iter([(t_ref, b_ref, e_ref)]))
    iv_ref = bootstrap_intervals(data, path, m_bar, cfg)
    assert _max_rel_diff(iv.correlation_intervals, iv_ref.correlation_intervals) <= 1e-10
    assert iv.coefficient_intervals.keys() == iv_ref.coefficient_intervals.keys()
    for cell, ends in iv.coefficient_intervals.items():
        assert _max_rel_diff(ends, iv_ref.coefficient_intervals[cell]) <= 1e-10
    assert np.abs(iv.membership_freq - iv_ref.membership_freq).max() <= 1e-10


def test_collect_is_bit_reproducible(diabetes):
    _, data = diabetes
    path = path_of(data, data.y)
    cfg = BootstrapConfig(draws=120, seed=44)
    first = _collect(data, path, 5, cfg)
    second = _collect(data, path, 5, cfg)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_chunking_does_not_change_results(diabetes, monkeypatch):
    _, data = diabetes
    path = path_of(data, data.y)
    cfg = BootstrapConfig(draws=90, seed=45)
    whole = _collect(data, path, 5, cfg)
    # 8 * p^2 = 800 bytes per replica, so 8000 bytes gives chunks of 10
    monkeypatch.setattr(bootstrap, "CHUNK_BYTES", 8000)
    chunked = _collect(data, path, 5, cfg)
    for a, b in zip(whole, chunked):
        assert _max_rel_diff(a, b) <= 1e-12
    assert np.array_equal(whole[2], chunked[2])


def test_chunk_rows():
    # p = 20 and 40 draws a response (the bench coverage shape): engines
    # share chunks of CHUNK_ROWS
    assert chunk_rows(8 * 20**2, 40) == bootstrap.CHUNK_ROWS
    # one bootstrap's draws run in calls of at most 2 CHUNK_ROWS
    assert chunk_rows(8 * 10**2, 500) == 256
    assert chunk_rows(8 * 20**2, 200) == 200
    assert chunk_rows(8 * 100**2, 500) == 256
    # at p = 200 the byte budget binds
    assert chunk_rows(8 * 200**2, 500) == 104
    assert chunk_rows(2 * bootstrap.CHUNK_BYTES) == 1


@pytest.mark.parametrize("draws", [500, 2000])
def test_one_bootstrap_runs_in_calls_of_at_most_256_rows(draws, diabetes, monkeypatch):
    _, data = diabetes
    path = path_of(data, data.y)
    sizes = []

    def counted(start, *args, engine=bootstrap.lar_batch, **kwargs):
        sizes.append(len(start))
        return engine(start, *args, **kwargs)

    monkeypatch.setattr(bootstrap, "lar_batch", counted)
    bootstrap_intervals(data, path, 5, BootstrapConfig(draws=draws, seed=3))
    assert sum(sizes) == draws
    assert sizes == [256] * (draws // 256) + [draws % 256]


def test_bootstrap_memory_at_5000_draws(diabetes):
    """5000 draws at p = 10 keep their statistics, (2p + cells) x 8 bytes a
    draw, and the work arrays of one call of 256 rows; all 5000 rows in one
    call would take about 17 MiB."""
    _, data = diabetes
    path = path_of(data, data.y)
    tracemalloc.start()
    try:
        bootstrap_intervals(data, path, 5, BootstrapConfig(draws=5000, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("naive", [False, True])
def test_interval_sets_match_one_response_at_a_time(naive, diabetes, monkeypatch):
    """Several responses on one design, with different m_bar (0 included) and
    seeds, through shared chunks that split their replicas."""
    _, data = diabetes
    rng = np.random.default_rng(46)
    Y = data.y + 0.02 * rng.standard_normal((4, data.n))
    Y -= Y.mean(axis=1, keepdims=True)
    paths = [path_of(data, y) for y in Y]
    m_bars = [5, 0, 2, 5]
    cfgs = [BootstrapConfig(draws=60, seed=50 + i) for i in range(4)]
    # 8 * p^2 = 800 bytes per replica: chunks of 25
    monkeypatch.setattr(bootstrap, "CHUNK_BYTES", 25 * 800)
    use_naive_bootstrap(monkeypatch, naive)
    sets = list(interval_sets(data, Y, paths, m_bars,
                              sigma_hat(data, Y * data.response_scale), cfgs))
    assert len(sets) == 4
    for y, path, m_bar, cfg, iv in zip(Y, paths, m_bars, cfgs, sets):
        ref = bootstrap_intervals(with_response(data, y * data.response_scale), path,
                                  m_bar, cfg)
        # one coefficient cell per variable active at each step k <= m_bar
        assert len(iv.coefficient_intervals) == m_bar * (m_bar + 1) // 2
        assert np.array_equal(iv.membership_freq, ref.membership_freq)
        assert _max_rel_diff(iv.correlation_intervals, ref.correlation_intervals) <= 1e-12
        assert iv.coefficient_intervals.keys() == ref.coefficient_intervals.keys()
        for cell, ends in iv.coefficient_intervals.items():
            assert _max_rel_diff(ends, ref.coefficient_intervals[cell]) <= 1e-12
        assert np.allclose(iv.b_bar, ref.b_bar, rtol=1e-12, atol=1e-15)
        assert np.allclose(iv.raw_b_bar, ref.raw_b_bar, rtol=1e-12, atol=1e-15)
