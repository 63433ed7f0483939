"""Sampling determinism, ensemble moments, trace utilities, text format."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skcw import cycles, gibbs, randmat
from skcw.cycles import cycle_series
from skcw.gibbs import ModelParams, exact_log_partition, rn_log_ratio
from skcw.randmat import (
    SeedSpec,
    all_ones_spins,
    alternating_spins,
    check_matrix,
    check_spins,
    gauge_conjugate,
    hollowed,
    load_matrix_text,
    one_blas_thread,
    openblas_function,
    power_traces,
    random_spins,
    sample_gaussian_matrix,
    sample_tilted_matrix,
    save_matrix_text,
)

SEED = SeedSpec(20240817, 0)


def test_determinism_and_stream_separation():
    a = sample_gaussian_matrix(8, SEED)
    b = sample_gaussian_matrix(8, SEED)
    c = sample_gaussian_matrix(8, SEED.stream(1))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_symmetry_and_hollow():
    a = sample_gaussian_matrix(15, SEED)
    assert np.array_equal(a, a.T)
    h = sample_gaussian_matrix(15, SEED, hollow=True)
    assert np.all(np.diag(h) == 0.0)
    assert np.array_equal(h, h.T)
    # hollow and plain share the off-diagonal draws under the same seed
    assert np.array_equal(hollowed(a), h)


@pytest.mark.parametrize("hollow", [False, True])
def test_gather_index_is_cached_read_only(hollow):
    """The gather index is built once per size, the same for a plain and a
    hollow draw, and cannot be written through; the draws it places are
    those of ``np.triu_indices``, row-major, mirrored, followed by the
    diagonal, which a hollow draw sets to zero, and the stack it gathers is
    C-contiguous."""
    index = randmat._gather_index(9)
    assert randmat._gather_index(9) is index
    with pytest.raises(ValueError):
        index[0] = 1
    want = np.zeros((9, 9))
    rng = SEED.generator()
    want[np.triu_indices(9, 1)] = rng.standard_normal(36)
    want += want.T
    want[np.diag_indices(9)] = rng.standard_normal(9)
    if hollow:
        want = hollowed(want)
    got = sample_gaussian_matrix(9, SEED, hollow=hollow, count=2)
    assert got.flags.c_contiguous
    assert got[0].tobytes() == want.tobytes()
    assert sample_gaussian_matrix(9, SEED, hollow=hollow).tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [0, -1])
def test_a_stack_of_no_streams_is_refused(count):
    with pytest.raises(ValueError, match="count must be positive"):
        sample_gaussian_matrix(4, SEED, count=count)
    with pytest.raises(ValueError, match="count must be positive"):
        sample_gaussian_matrix(4, SEED, hollow=True, count=count)
    with pytest.raises(ValueError, match="count must be positive"):
        sample_tilted_matrix(4, np.ones(4), 0.2, SEED, count=count)


@pytest.mark.parametrize("n", [1, 2, 12, 40])
def test_stacked_sampling_equals_singles(n):
    """Row i of a plain, hollow or tilted stack of 3 from a seed is bit for
    bit the matrix of stream seed.stream_id + i alone, the stream ids
    wrapping at 2^64 as the Philox key does, and the plain one holds the
    stream's own generator draws: the upper triangle row-major, then the
    diagonal."""
    sigma = alternating_spins(n)
    for first in (7, 3 * 2**32 + 17, 2**64 - 2):
        seeds = [SEED.stream(first + i) for i in range(3)]
        for hollow in (False, True):
            stack = sample_gaussian_matrix(n, seeds[0], hollow=hollow, count=3)
            assert stack.shape == (3, n, n)
            for a, seed in zip(stack, seeds):
                assert a.tobytes() == sample_gaussian_matrix(n, seed, hollow=hollow).tobytes()
        stack = sample_tilted_matrix(n, sigma, 0.3, seeds[0], count=3)
        for a, seed in zip(stack, seeds):
            assert a.tobytes() == sample_tilted_matrix(n, sigma, 0.3, seed).tobytes()
            draws = seed.generator().standard_normal(n * (n + 1) // 2)
            plain = sample_gaussian_matrix(n, seed)
            assert np.array_equal(plain[np.triu_indices(n, 1)], draws[: n * (n - 1) // 2])
            assert np.array_equal(np.diag(plain), draws[n * (n - 1) // 2:])


def test_pooled_moments_large_matrix():
    n = 2000
    a = sample_gaussian_matrix(n, SEED)
    iu = np.triu_indices(n, 1)
    pool = a[iu]
    tol = 3.0 / math.sqrt(pool.size)
    assert abs(pool.mean()) < tol
    assert abs(pool.var(ddof=1) - 1.0) < 0.05


def test_tilted_zero_beta_bit_identical():
    a = sample_gaussian_matrix(9, SEED)
    t = sample_tilted_matrix(9, all_ones_spins(9), 0.0, SEED)
    assert np.array_equal(a, t)


def test_tilted_mean_shift():
    n, beta = 100, 0.4
    t = sample_tilted_matrix(n, all_ones_spins(n), beta, SEED)
    iu = np.triu_indices(n, 1)
    pool = t[iu]
    target = 2 * beta / math.sqrt(n)
    assert abs(pool.mean() - target) < 3.0 / math.sqrt(pool.size)


def test_tilted_gauge_relation_distributional():
    """Conjugating the sigma-tilted sample by sigma matches the all-ones tilt
    in distribution; pooled first and second moments agree within 3 SE."""
    n, beta = 120, 0.3
    sigma = alternating_spins(n)
    t_sig = gauge_conjugate(sample_tilted_matrix(n, sigma, beta, SEED), sigma)
    t_one = sample_tilted_matrix(n, all_ones_spins(n), beta, SEED.stream(5))
    iu = np.triu_indices(n, 1)
    se = 1.0 / math.sqrt(iu[0].size)
    assert abs(t_sig[iu].mean() - t_one[iu].mean()) < 3 * se * math.sqrt(2)
    assert abs(t_sig[iu].var(ddof=1) - t_one[iu].var(ddof=1)) < 0.1


def test_tilted_validation():
    with pytest.raises(ValueError):
        sample_tilted_matrix(4, np.ones(3), 0.2, SEED)
    with pytest.raises(ValueError):
        sample_tilted_matrix(4, np.ones(4), -0.5, SEED)
    with pytest.raises(ValueError):
        sample_tilted_matrix(4, np.array([1.0, 0.0, 1.0, -1.0]), 0.2, SEED)
    with pytest.raises(ValueError, match="n must be positive"):
        sample_tilted_matrix(0, np.ones(0), 0.2, SEED)


def test_power_traces_hand_values():
    assert np.allclose(power_traces(np.eye(4), 3), [4, 4, 4])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(power_traces(swap, 4), [0, 2, 0, 2])
    h = sample_gaussian_matrix(10, SEED, hollow=True)
    assert power_traces(h, 1)[0] == 0.0


@pytest.mark.parametrize("symmetric", [True, False])
def test_power_traces_match_explicit_powers(symmetric):
    """Tr M^k from half powers equals the trace of M^k, also for a
    non-symmetric M (the identity uses the transpose)."""
    a = sample_gaussian_matrix(9, SEED)
    if not symmetric:
        a = a + np.triu(a, 1)
    expected = [np.trace(np.linalg.matrix_power(a, k)) for k in range(1, 8)]
    for kmax in range(1, 8):
        assert power_traces(a, kmax) == pytest.approx(expected[:kmax], rel=1e-12, abs=1e-9)


def test_power_traces_budget():
    # kmax * n^3 = 20001 * 100^3 = 2.0001e10, just over TRACE_FLOP_BUDGET
    with pytest.raises(ValueError, match="flop budget"):
        power_traces(np.eye(100), 20_001)
    with pytest.raises(ValueError):
        power_traces(np.eye(3), 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_frobenius_identity(seed):
    a = sample_gaussian_matrix(12, SeedSpec(77, seed))
    tr2 = power_traces(a, 2)[1]
    assert tr2 == pytest.approx(float((a * a).sum()), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
def test_gauge_covariance_of_traces(seed, kmax):
    a = sample_gaussian_matrix(10, SeedSpec(78, seed))
    sigma = random_spins(10, SeedSpec(79, seed))
    conj = gauge_conjugate(a, sigma)
    assert np.allclose(power_traces(conj, kmax), power_traces(a, kmax), rtol=1e-9)


def test_spin_helpers():
    assert np.array_equal(alternating_spins(4), [1, -1, 1, -1])
    s = random_spins(50, SEED)
    assert set(np.unique(s)) <= {-1.0, 1.0}
    with pytest.raises(ValueError):
        check_spins([1.0, 2.0])
    with pytest.raises(ValueError):
        check_spins(np.ones((2, 2)))


def _refused_matrices():
    """(name, matrix or stack, message) of each input ``check_matrix``
    refuses: a seeded non-symmetric matrix, a symmetric pair of infinite
    entries, a NaN, and a stack with one matrix off its mirror."""
    asym = np.random.default_rng(3).standard_normal((10, 10))
    good = sample_gaussian_matrix(10, SEED)
    inf_pair = good.copy()
    inf_pair[1, 4] = inf_pair[4, 1] = math.inf
    nan = good.copy()
    nan[2, 2] = math.nan
    bad = good.copy()
    bad[0, 9] += 1.0
    stack = np.stack([good, bad, good])
    return [
        ("asymmetric", asym, "exactly symmetric"),
        ("inf_pair", inf_pair, "finite"),
        ("nan", nan, "finite"),
        ("stack", stack, "exactly symmetric"),
    ]


MATRIX_ENTRY_POINTS = ("split", "gray", "naive", "rn_log_ratio", "cycle_series",
                       "save_matrix_text")


def _call_entry_point(entry: str, a: np.ndarray, out: io.StringIO):
    p = ModelParams(beta=0.25, J=0.5, n=10)
    if entry in ("split", "gray", "naive"):
        return exact_log_partition(a, p, method=entry)
    if entry == "rn_log_ratio":
        return rn_log_ratio(a, p)
    if entry == "cycle_series":
        return cycle_series(a, 4)
    return save_matrix_text(a, out)


@pytest.mark.parametrize("entry", MATRIX_ENTRY_POINTS)
@pytest.mark.parametrize(
    "a, message", [pytest.param(a, message, id=name) for name, a, message in _refused_matrices()]
)
def test_bad_matrix_refused_before_any_product(monkeypatch, entry, a, message):
    """``check_matrix`` is the one matrix check of exact log Z (every
    method), the RN log ratio, the cycle series and the text format: each
    refuses the input with its message before M is built, a kernel runs or
    a line is written.  Unchecked, the three log Z methods disagree on the
    seeded non-symmetric matrix (0.950 split, 3.468 Gray, 0.599 naive), and
    the infinite pair gives infinite and NaN cycles."""

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for module, fn in ((gibbs, "interaction_matrix"), (gibbs, "_log_partition_split"),
                       (gibbs, "_log_partition_gray"), (gibbs, "_log_partition_naive"),
                       (cycles, "_walk_sums"), (cycles, "signed_cycle_c1")):
        monkeypatch.setattr(module, fn, no_work)
    out = io.StringIO()
    with pytest.raises(ValueError, match=f"matrix must be {message}"):
        _call_entry_point(entry, a, out)
    assert out.getvalue() == ""


def test_check_matrix_returns_float_square_matrices():
    """A square, finite, exactly symmetric matrix or stack comes back as a
    float array with its values; anything but (n, n) or (B, n, n) with
    square matrices is refused."""
    ints = np.array([[1, 2], [2, 0]])
    assert check_matrix(ints).dtype == float
    assert check_matrix(ints).tolist() == ints.tolist()
    stack = sample_gaussian_matrix(4, SEED, count=2)
    assert check_matrix(stack) is stack
    for shape in ((3,), (3, 4), (2, 3, 4), (1, 2, 3, 3)):
        with pytest.raises(ValueError, match="matrix must be square"):
            check_matrix(np.zeros(shape))


def test_matrix_text_round_trip():
    a = sample_gaussian_matrix(7, SEED)
    buf = io.StringIO()
    save_matrix_text(a, buf)
    back = load_matrix_text(io.StringIO(buf.getvalue()))
    assert np.array_equal(a, back)


def test_matrix_text_file_round_trip(tmp_path):
    a = sample_gaussian_matrix(5, SEED, hollow=True)
    path = tmp_path / "m.txt"
    save_matrix_text(a, path)
    assert np.array_equal(load_matrix_text(path), a)
    header = path.read_text().splitlines()[0]
    assert header == "5"


def test_matrix_text_validation(tmp_path):
    with pytest.raises(ValueError):
        save_matrix_text(np.arange(4.0).reshape(2, 2), io.StringIO())
    with pytest.raises(ValueError, match="one matrix per file"):
        save_matrix_text(np.zeros((2, 3, 3)), io.StringIO())
    with pytest.raises(ValueError):
        load_matrix_text(io.StringIO("2\n1.0 2.0\n"))
    with pytest.raises(ValueError, match="empty matrix file"):
        load_matrix_text(io.StringIO(""))
    for entry in ("nan", "inf"):
        with pytest.raises(ValueError, match="must be finite"):
            load_matrix_text(io.StringIO(f"2\n1 {entry}\n2\n"))


def test_seedspec_derived_changes_master():
    d = SEED.derived(3)
    assert d.master_seed != SEED.master_seed
    assert d.stream_id == 0
    assert SEED.derived(3) == d


def test_one_blas_thread_pins_and_restores_the_count():
    get_threads = openblas_function("get_num_threads")
    if get_threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    before = get_threads()
    with one_blas_thread():
        assert get_threads() == 1
    assert get_threads() == before
    with pytest.raises(RuntimeError):
        with one_blas_thread():
            raise RuntimeError
    assert get_threads() == before


def _fake_openblas(monkeypatch, count):
    """Install get/set functions that start at ``count`` threads; return
    the list of counts passed to the setter."""
    state = {"count": count}
    set_calls = []

    def set_threads(c):
        set_calls.append(c)
        state["count"] = c

    functions = {"get_num_threads": lambda: state["count"], "set_num_threads": set_threads}
    monkeypatch.setattr(randmat, "openblas_function", functions.get)
    return set_calls


def test_set_blas_threads_calls_the_setter_only_on_a_change(monkeypatch):
    set_calls = _fake_openblas(monkeypatch, 1)
    assert randmat.set_blas_threads(1) == 1
    with one_blas_thread():
        pass
    assert set_calls == []
    set_calls = _fake_openblas(monkeypatch, 2)
    assert randmat.set_blas_threads(1) == 2
    assert set_calls == [1]
    set_calls = _fake_openblas(monkeypatch, 2)
    with one_blas_thread():
        assert set_calls == [1]
    assert set_calls == [1, 2]


def test_blas_setters_without_openblas_do_nothing(monkeypatch):
    linked = openblas_function("get_num_threads") is not None
    before = openblas_function("get_num_threads")() if linked else None
    monkeypatch.setattr(randmat, "openblas_function", lambda action: None)
    assert randmat.set_blas_threads(1) is None
    with one_blas_thread():
        pass
    monkeypatch.undo()
    assert (openblas_function("get_num_threads")() if linked else None) == before
