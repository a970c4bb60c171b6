"""The closed-form kernels for small symmetric stacks against LAPACK, matrix by matrix.

Only 2x2 eigenvalues and inverses and the 3x3 eigenpair are closed forms;
the other sizes check that the kernels hand them to LAPACK.
"""

import warnings

import numpy as np
import pytest

from finprint import _symmetric

EPS = np.finfo(float).eps


def random_symmetric(rng, n, k):
    a = rng.standard_normal((n, k, k))
    return 0.5 * (a + a.swapaxes(-1, -2))


def psd_with_gap(rng, n, k, rel_gap):
    """PSD stack whose two smallest eigenvalues differ by ``rel_gap`` times the mean eigenvalue."""
    q = np.linalg.qr(rng.standard_normal((n, k, k)))[0]
    vals = np.sort(rng.uniform(0.2, 1.0, (n, k)), axis=-1)
    vals[:, 0] = rng.uniform(0.0, 0.1, n)
    # gap = rel_gap * (2 v0 + gap + sum of the rest) / k, solved for the gap
    vals[:, 1] = vals[:, 0] + rel_gap * (2.0 * vals[:, 0] + vals[:, 2:].sum(axis=-1)) / (k - rel_gap)
    m = (q * vals[:, None, :]) @ q.swapaxes(-1, -2)
    return 0.5 * (m + m.swapaxes(-1, -2)) * 10.0 ** rng.uniform(-100.0, 100.0, (n, 1, 1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_eigvalsh_matches_lapack(k):
    rng = np.random.default_rng(k)
    a = random_symmetric(rng, 500, k) * 10.0 ** rng.uniform(-150.0, 150.0, (500, 1, 1))
    want = np.linalg.eigvalsh(a)
    scale = np.abs(want).max(axis=-1, keepdims=True)
    assert (np.abs(_symmetric.eigvalsh(a) - want) <= 8 * EPS * scale).all()
    svals = np.linalg.svd(a, compute_uv=False)
    assert (np.abs(_symmetric.singular_values(a) - svals) <= 8 * EPS * scale).all()


def test_singular_values_of_2x2_equal_the_sorted_form():
    # The max/min pair of a 2x2 must give the descending sort's bits,
    # NaN first included, on every mix of special entries and on random,
    # tied and zero rows.
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 1.0, -2.0, np.inf, -np.inf, np.nan]
    entries = np.array([(a, b, c) for a in special for b in special for c in special])
    entries = np.concatenate([entries, rng.standard_normal((300, 3)) * 10.0 ** rng.uniform(-150, 150, (300, 1))])
    entries = np.concatenate([entries, [[3.0, 0.0, 3.0], [3.0, 0.0, -3.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]])
    a = np.stack([entries[:, [0, 1]], entries[:, [1, 2]]], axis=1)
    want = np.sort(np.abs(_symmetric.eigvalsh(a)), axis=-1)[..., ::-1]
    got = _symmetric.singular_values(a)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.isnan(got[:, 0]).any() and (np.isnan(got[:, 0]) & ~np.isnan(got[:, 1])).any()
    finite = np.isfinite(a).all(axis=(-2, -1))
    lapack = np.sort(np.abs(np.linalg.eigvalsh(a[finite])), axis=-1)[..., ::-1]
    scale = lapack[:, :1]
    assert (np.abs(got[finite] - lapack) <= 8 * EPS * scale).all()


def test_eigvalsh_of_nonfinite_matrix_is_quiet():
    # LAPACK gives a 2x2 with a non-finite entry NaN eigenvalues silently.
    a = np.full((2, 2, 2), 1.0)
    a[0, 0, 0], a[1, -1, -1] = np.inf, np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(_symmetric.eigvalsh(a)).all(axis=-1).any()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_inv_matches_lapack_at_every_scale(k):
    # Entries from 1e-300 to 1e300: an unscaled 2x2 determinant is subnormal
    # or zero near 1e-160 and infinite above 1e154.
    rng = np.random.default_rng(10 + k)
    scales = 10.0 ** np.arange(-300.0, 301.0, 10.0)
    a = (np.eye(k) + 0.3 * random_symmetric(rng, scales.size, k)) * scales[:, None, None]
    np.testing.assert_allclose(_symmetric.inv(a), np.linalg.inv(a), rtol=1e-13, atol=0.0)


def test_inv_of_singular_matrix_raises():
    with pytest.raises(np.linalg.LinAlgError):
        _symmetric.inv(np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]]]))


@pytest.mark.parametrize("rel_gap", [1.0, 1e-2, 1e-3, 1e-4, 3e-5])
def test_smallest_eigenpair_matches_lapack(rel_gap):
    # Gaps above the fallback (1e-5) take the closed form. Both sides move
    # the eigenvector by ~1e-16/gap under round-off.
    rng = np.random.default_rng(int(-np.log10(rel_gap) * 10) + 3)
    m = psd_with_gap(rng, 2000, 3, rel_gap)
    vals, v = _symmetric.smallest_eigenpair(m, 1e-5)
    want_vals, want_vecs = np.linalg.eigh(m)
    scale = np.abs(m).max(axis=(-2, -1))
    assert (np.abs(vals[:, 0] - want_vals[:, 0]) <= 1e-13 * scale).all()
    # The second eigenvalue, which only sets the gap, comes from the cubic's
    # root and loses digits as the gap closes.
    assert (np.abs(vals[:, 1] - want_vals[:, 1]) <= 100 * EPS / rel_gap * scale).all()
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    want = want_vecs[..., 0]
    err = np.linalg.norm(v - np.sign(np.sum(v * want, axis=-1))[:, None] * want, axis=-1)
    assert err.max() <= 100 * EPS / rel_gap


def test_axis_eigenvectors_are_exact():
    # Diagonal matrices: the smallest eigenvector is a coordinate axis, on
    # each axis in turn, and the closed form returns it with exact zeros.
    m = np.stack([np.diag(np.roll([1.0, 2.0, 3.0], j)) for j in range(3)])
    vals, v = _symmetric.smallest_eigenpair(m, 1e-5)
    np.testing.assert_allclose(vals[:, 0], 1.0, rtol=4 * EPS)
    np.testing.assert_array_equal(v != 0.0, np.eye(3, dtype=bool))


def test_ties_and_nonfinite_rows_fall_back_to_lapack(monkeypatch):
    rng = np.random.default_rng(3)
    m = psd_with_gap(rng, 6, 3, 0.5)
    m[1] = np.eye(3)  # an exact tie
    m[3] = psd_with_gap(rng, 1, 3, 1e-7)[0]  # within the fallback band
    m[4] = 0.0  # no scale
    rows = []
    original = np.linalg.eigh

    def eigh(a):
        rows.append(a.shape[0])
        return original(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    vals, v = _symmetric.smallest_eigenpair(m, 1e-5)
    assert rows == [3]
    want_vals, want_vecs = original(m[[1, 3, 4]])
    np.testing.assert_array_equal(vals[[1, 3, 4]], want_vals)
    np.testing.assert_array_equal(v[[1, 3, 4]], want_vecs[..., 0])


def scaled_with_special_rows(rng, k):
    """Stacks of k x k matrices at every scale from 1e-300 to 1e300, then rows holding NaN, +inf and -inf."""
    scales = 10.0 ** np.arange(-300.0, 301.0, 10.0)
    a = (np.eye(k) + 0.3 * random_symmetric(rng, scales.size, k)) * scales[:, None, None]
    special = np.ones((3, k, k))
    special[:, -1, 0] = [np.nan, np.inf, -np.inf]
    return np.concatenate([a, special])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_symmetrize_equals_the_averaged_sum(k):
    # Halving before the sum rounds as halving after it on normal floats;
    # NaN, inf and inf against -inf give NaN or inf quietly.
    rng = np.random.default_rng(30 + k)
    scales = 10.0 ** np.arange(-300.0, 301.0, 10.0)
    special = np.ones((4, k, k))
    special[:, -1, 0] = [np.nan, np.inf, -np.inf, np.inf]
    special[-1, 0, -1] = -np.inf
    a = np.concatenate([rng.standard_normal((scales.size, k, k)) * scales[:, None, None], special])
    with np.errstate(invalid="ignore"):
        want = 0.5 * (a + a.swapaxes(-1, -2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _symmetric.symmetrize(a)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, got.swapaxes(-1, -2))


def inverse_or_error(inv, a):
    try:
        return inv(a)
    except np.linalg.LinAlgError as exc:
        return str(exc)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_entry_plane_kernels_match_numpy(k):
    # A product entry is a sum of k terms, accurate to a few ulps of the
    # largest; at the top of the range both sides overflow to the same inf
    # or NaN, and at the bottom the terms are subnormal, accurate only to
    # the smallest subnormal. A special row gets LAPACK's inverse, or its
    # LinAlgError.
    rng = np.random.default_rng(20 + k)
    a, b = scaled_with_special_rows(rng, k), scaled_with_special_rows(rng, k)[::-1]
    with np.errstate(all="ignore"):
        want_product, want_trace = np.matmul(a, b), np.trace(a, axis1=-2, axis2=-1)
        bound = 4 * k * (EPS * np.matmul(np.abs(a), np.abs(b)) + np.finfo(float).smallest_subnormal)
        want_inv = [inverse_or_error(np.linalg.inv, row[None]) for row in a[-3:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        product, trace, inverse = _symmetric.matmul(a, b), _symmetric.trace(a), _symmetric.inv(a[:-3])
        special_inv = [inverse_or_error(_symmetric.inv, row[None]) for row in a[-3:]]
    finite = np.isfinite(want_product)
    np.testing.assert_array_equal(product[~finite], want_product[~finite])
    assert (np.abs(product[finite] - want_product[finite]) <= bound[finite]).all()
    np.testing.assert_array_equal(trace, want_trace)
    np.testing.assert_allclose(inverse, np.linalg.inv(a[:-3]), rtol=1e-13, atol=0.0)
    for got, want in zip(special_inv, want_inv):
        np.testing.assert_array_equal(got, want)
