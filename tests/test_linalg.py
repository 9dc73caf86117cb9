import numpy as np
import pytest
from numpy.testing import assert_allclose

import critflow as cf
from critflow.linalg import Spectrum, is_degenerate, min_pivot


def _np_spectrum(m) -> Spectrum:
    return Spectrum.of(np.linalg.eigvals(np.asarray(m, dtype=float)))


def test_eigenvalues_2x2_closed_form():
    # characteristic polynomial t^2 + 3t + 2 = 0 -> roots -2, -1
    spec = cf.eigenvalues([[0.0, 1.0], [-2.0, -3.0]])
    assert spec.values == ((-2 + 0j), (-1 + 0j))


def test_eigenvalues_identity():
    spec = cf.eigenvalues(np.eye(3))
    assert spec.values == ((1 + 0j), (1 + 0j), (1 + 0j))


def test_eigenvalue_1x1():
    # df/dx of the quadratic acceleration field at its zero, A = 1
    assert cf.eigenvalues([[-2.0]]).values == ((-2 + 0j),)


def test_eigenvalues_complex_pair():
    spec = cf.eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
    assert spec.values == ((0 - 1j), (0 + 1j))


def test_eigenvalues_match_numpy_on_random_matrices():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 4, 5, 6, 7, 8):
        for _ in range(25):
            m = rng.uniform(-3, 3, size=(n, n))
            ours = cf.eigenvalues(m)
            ref = _np_spectrum(m)
            scale = max(1.0, ref.moduli_scale())
            assert cf.spectrum_distance(ours, ref) < 1e-8 * scale


def test_eigenvalues_trace_and_det_consistency():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            m = rng.uniform(-2, 2, size=(n, n))
            vals = cf.eigenvalues(m).values
            tr = sum(vals)
            det = np.prod(np.array(vals))
            assert abs(tr.real - np.trace(m)) < 1e-8 * max(1.0, np.linalg.norm(m))
            assert abs(tr.imag) < 1e-8 * max(1.0, np.linalg.norm(m))
            ref_det = np.linalg.det(m)
            assert abs(det - ref_det) <= 1e-7 * max(1.0, abs(ref_det))


def test_real_spectra_closed_under_conjugation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.uniform(-2, 2, size=(5, 5))
        vals = list(cf.eigenvalues(m).values)
        for v in vals:
            partner = min(vals, key=lambda w: abs(w - v.conjugate()))
            assert abs(partner - v.conjugate()) < 1e-9 * max(1.0, abs(v))


def test_similarity_invariance():
    # the exact mechanism behind spectrum preservation under conjugation
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        a = rng.uniform(-2, 2, size=(n, n))
        while True:
            p = rng.uniform(-1, 1, size=(n, n))
            if abs(np.linalg.det(p)) > 0.1:
                break
        sim = p @ a @ np.linalg.inv(p)
        assert cf.spectrum_distance(cf.eigenvalues(a), cf.eigenvalues(sim)) < 1e-6


def test_eigenvalues_near_defective_does_not_crash():
    q, _ = np.linalg.qr(np.random.default_rng(5).uniform(-1, 1, size=(3, 3)))
    jordan = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    m = q @ jordan @ q.T
    ours = cf.eigenvalues(m)
    assert cf.spectrum_distance(ours, _np_spectrum(m)) < 1e-4


def test_eigen_nonconvergence_reports_iterations():
    # zero sweeps allowed forces the cap on any matrix needing iteration
    m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(cf.EigenConvergenceError) as exc:
        cf.eigenvalues(m, _sweep_cap=0)
    assert exc.value.iterations == 1
    assert exc.value.matrix.shape == (3, 3)


def test_solve_linear_identity_and_diagonal():
    assert_allclose(cf.solve_linear(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    assert_allclose(cf.solve_linear([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0]), [1.0, 2.0])


def test_solve_linear_singular():
    with pytest.raises(cf.SingularMatrixError):
        cf.solve_linear([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    with pytest.raises(cf.SingularMatrixError):
        cf.solve_linear(np.zeros((2, 2)), [0.0, 0.0])


def test_solve_linear_residual_bound_on_random_systems():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = rng.uniform(-5, 5, size=(n, n)) + 2.0 * np.eye(n)
        rhs = rng.uniform(-5, 5, size=n)
        x = cf.solve_linear(m, rhs)
        residual = np.linalg.norm(m @ x - rhs)
        bound = 1e-10 * (np.linalg.norm(m) * np.linalg.norm(x) + np.linalg.norm(rhs))
        assert residual <= bound
        assert_allclose(x, np.linalg.solve(m, rhs), rtol=1e-8, atol=1e-10)


def test_spectrum_distance_cases():
    a = Spectrum.of([-2.0, -1.0])
    b = Spectrum.of([-1.0, -2.0])
    assert cf.spectrum_distance(a, b) == 0.0
    assert cf.spectrum_distance(Spectrum.of([4.0]), Spectrum.of([4.0])) == 0.0
    assert cf.spectrum_distance(Spectrum.of([0.0]), Spectrum.of([1.0])) == 1.0
    with pytest.raises(ValueError):
        cf.spectrum_distance(Spectrum.of([1.0]), Spectrum.of([1.0, 2.0]))


def test_spectrum_distance_avoids_greedy_trap():
    # optimal matching must beat the naive pairing
    a = Spectrum.of([0.0, 10.0])
    b = Spectrum.of([1.0, 9.5])
    assert cf.spectrum_distance(a, b) == pytest.approx(1.0)


def test_spectrum_sorted_and_finite():
    s = Spectrum.of([3.0, -1.0, complex(0, 2), complex(0, -2)])
    assert s.values == ((-1 + 0j), (0 - 2j), (0 + 2j), (3 + 0j))


def test_min_pivot_and_degeneracy():
    assert min_pivot(np.zeros((2, 2))) == 0.0
    assert is_degenerate(np.zeros((3, 3)))
    assert not is_degenerate(np.eye(3))
    assert is_degenerate([[1.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_linear_rejects_non_finite_small_matrices(n, bad):
    rng = np.random.default_rng(n)
    for i in range(n):
        for j in range(n):
            m = rng.uniform(-2, 2, size=(n, n)) + 3.0 * np.eye(n)
            m[i, j] = bad
            for form in (m, m.tolist(), m.astype(np.float32)):
                with pytest.raises(ValueError, match="finite") as exc:
                    cf.solve_linear(form, np.ones(n))
                assert not isinstance(exc.value, cf.SingularMatrixError)


@pytest.mark.parametrize("n", [2, 3])
def test_solve_linear_singularity_threshold_on_small_matrices(n):
    # the last pivot is compared against 1e-13 times the row-sum norm (1 here)
    for form in (np.array, lambda rows: rows):
        at_threshold = np.eye(n)
        at_threshold[-1, -1] = 1e-13
        with pytest.raises(cf.SingularMatrixError) as exc:
            cf.solve_linear(form(at_threshold.tolist()), np.ones(n))
        assert exc.value.pivot == 1e-13
        above = np.eye(n)
        above[-1, -1] = np.nextafter(1e-13, 1.0)
        x = cf.solve_linear(form(above.tolist()), np.ones(n))
        assert x[-1] == 1.0 / above[-1, -1]
    # nearly dependent rows leave a second pivot below the threshold
    m = np.array([[1e-14, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])[:n, :n]
    m[0, 0] = 1.0 + 1e-13
    with pytest.raises(cf.SingularMatrixError):
        cf.solve_linear(m, np.ones(n))
    with pytest.raises(cf.SingularMatrixError):
        cf.solve_linear(np.zeros((n, n)), np.ones(n))


def test_solve_linear_small_arrays_match_general_elimination():
    # arrays and lists are validated alike and reach the same elimination
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(2, 4))
        m = rng.uniform(-5, 5, size=(n, n))
        rhs = rng.uniform(-5, 5, size=n)
        from_arrays = cf.solve_linear(m, rhs)
        from_lists = cf.solve_linear(m.tolist(), rhs.tolist())
        assert from_arrays.tobytes() == from_lists.tobytes()


def test_solve_linear_1x1_arrays_match_general_path():
    # float64 and float32 arrays and lists are validated alike, and each
    # divides on Python floats
    rng = np.random.default_rng(11)
    pivots = rng.uniform(-5, 5, size=100).tolist() + [5e-324, -1e-300, 1e-13, 1e300]
    for a in pivots:
        for b in (float(rng.uniform(-5, 5)), 0.0, -0.0, 1e308):
            want = np.array([b / a]).tobytes()
            assert cf.solve_linear(np.array([[a]]), np.array([b])).tobytes() == want
            assert cf.solve_linear(np.array([[a]]), [b]).tobytes() == want
            assert cf.solve_linear([[a]], [b]).tobytes() == want
        if abs(a) < 1e30 and np.float32(a) != 0.0:
            m32 = np.array([[a]], dtype=np.float32)
            x = cf.solve_linear(m32, [1.5])
            assert x.dtype == np.float64 and x[0] == 1.5 / float(m32[0, 0])
    for form in (np.zeros((1, 1)), np.array([[-0.0]]), [[0.0]], np.zeros((1, 1), np.float32)):
        with pytest.raises(cf.SingularMatrixError) as exc:
            cf.solve_linear(form, [1.0])
        assert exc.value.pivot == 0.0
        assert str(exc.value) == str(cf.SingularMatrixError(0.0, 0.0))



def _array_eliminate(a: np.ndarray, b):
    """The numpy elimination the list form replaced, kept as its reference."""
    n = a.shape[0]
    pivots = np.empty(n)
    for col in range(n):
        p = col + int(np.argmax(np.abs(a[col:, col])))
        pivots[col] = abs(a[p, col])
        if p != col:
            a[[col, p]] = a[[p, col]]
            if b is not None:
                b[[col, p]] = b[[p, col]]
        if a[col, col] == 0.0:
            continue
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            if factor != 0.0:
                a[row, col:] -= factor * a[col, col:]
                if b is not None:
                    b[row] -= factor * b[col]
    return pivots


def _array_solve(m, rhs):
    a = np.array(m, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    b = np.array(rhs, dtype=float)
    threshold = 1e-13 * float(np.linalg.norm(a, np.inf))
    worst = float(np.min(_array_eliminate(a, b)))
    if worst <= threshold or worst == 0.0:
        raise cf.SingularMatrixError(worst, threshold)
    x = np.empty(len(b))
    for row in range(len(b) - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def _awkward_matrices(rng, n):
    """Small-integer entries (ties everywhere), a zero column, a repeated
    row, both, a near-singular perturbation and a plain random matrix."""
    ties = rng.integers(-2, 3, size=(n, n)).astype(float) * rng.choice([1.0, 0.5, 3.0])
    zero_col = ties.copy()
    zero_col[:, rng.integers(n)] = 0.0
    repeated = rng.uniform(-4, 4, size=(n, n))
    repeated[rng.integers(1, n)] = repeated[0]
    both = repeated.copy()
    both[:, rng.integers(n)] = 0.0
    near = repeated.copy()
    near[-1, -1] += 1e-15
    return [ties, zero_col, repeated, both, near, rng.normal(size=(n, n))]


def test_list_elimination_keeps_the_array_pivots_for_every_size():
    rng = np.random.default_rng(2024)
    solved = raised = 0
    for _ in range(60):
        n = int(rng.integers(4, 7))
        for m in _awkward_matrices(rng, n):
            want = _array_eliminate(m.copy(), None)
            assert min_pivot(m) == float(np.min(want))
            assert min_pivot(m.tolist()) == float(np.min(want))
            scale = max(1.0, float(np.linalg.norm(m, np.inf)))
            for tol in (1e-10, 1e-13):
                assert is_degenerate(m, tol) == bool(np.min(want) <= tol * scale)
            rhs = rng.uniform(-3, 3, size=n)
            try:
                ref = _array_solve(m, rhs)
            except cf.SingularMatrixError as err:
                with pytest.raises(cf.SingularMatrixError) as exc:
                    cf.solve_linear(m, rhs)
                assert exc.value.pivot == err.pivot and str(exc.value) == str(err)
                raised += 1
                continue
            got = cf.solve_linear(m, rhs)
            oracle = np.linalg.solve(m, rhs)
            bound = 1e-12 * np.linalg.cond(m) * max(1.0, float(np.linalg.norm(oracle)))
            assert float(np.linalg.norm(got - oracle)) <= bound
            assert float(np.linalg.norm(got - ref)) <= bound
            solved += 1
    assert solved > 100 and raised > 100
    for bad in (np.inf, -np.inf, np.nan):
        m = np.eye(5)
        m[2, 3] = bad
        with pytest.raises(ValueError):
            _array_solve(m, np.ones(5))
        with pytest.raises(ValueError):
            cf.solve_linear(m, np.ones(5))


def test_spectrum_lists_negative_imaginary_member_of_a_pair_first():
    # rounding may put either member's real part lower; the order must not follow it
    eps = 2.0 ** -52
    for vals in ([-1 + 2j, (-1 - eps) - 2j, 3.0], [(-1 - eps) + 2j, -1 - 2j, 3.0],
                 [3.0, -1 + (2 + 4 * eps) * 1j, -1 - 2j]):
        values = Spectrum.of(vals).values
        assert [v.imag for v in values] == pytest.approx([-2.0, 2.0, 0.0]), vals
        assert values[2] == 3.0
    # pairs that share a real part stay together, after the real value there
    values = Spectrum.of([1 + 5j, 1 - 2j, 1.0, 1 - 5j, 1 + 2j]).values
    assert values == (1 + 0j, 1 - 2j, 1 + 2j, 1 - 5j, 1 + 5j)
