"""The package's CSR matrices against scipy.sparse, entry for entry and bit for bit.

Every operation of :mod:`uhfflow.sparse` runs on scipy's compiled
sparsetools kernels, loaded by file path or, as the fallback, by the
normal import of ``scipy.sparse._sparsetools``; each test runs with both.
The matrices have empty rows and columns, duplicate COO entries,
duplicates that cancel to an exact zero, real and complex data, and int32
and int64 COO indices; the 0 x 0 matrix is among them.
"""

import numpy as np
import pytest
import scipy.sparse

import uhfflow.sparse as sparse
from uhfflow.sparse import CSR

SHAPES = [(0, 0), (1, 1), (3, 1), (1, 4), (6, 9), (9, 6), (40, 40)]


@pytest.fixture(params=["path", "import"], autouse=True)
def loader(request, monkeypatch):
    """Run each test on the kernels loaded by file path, then on the imported module."""
    if request.param == "path":
        kernels = sparse._sparsetools(sparse._scipy_dir())
        assert kernels.__name__ == "uhfflow.sparse._sparsetools"
    else:
        kernels = sparse._sparsetools(None)
        assert kernels is scipy.sparse._sparsetools
    monkeypatch.setattr(sparse, "_st", kernels)
    return request.param


def test_a_missing_extension_falls_back_to_the_import(tmp_path):
    assert sparse._sparsetools(str(tmp_path)) is scipy.sparse._sparsetools


def coo(rng, shape, dtype, index_dtype=np.int32):
    """Random COO entries on some rows only, with repeats and an exact cancellation."""
    M, N = shape
    if M == 0 or N == 0:
        empty = np.zeros(0, dtype=index_dtype)
        return np.zeros(0, dtype=dtype), empty, empty
    k = 3 * max(M, N)
    rows = rng.choice(rng.permutation(M)[:max(1, M // 2 + 1)], size=k)  # some rows stay empty
    cols = rng.integers(0, N, size=k)
    vals = rng.normal(size=k)
    if dtype == complex:
        vals = vals + 1j * rng.normal(size=k)
    # A repeated entry and one that cancels to an exact zero.
    rows = np.concatenate([rows, rows[:2], rows[2:3]])
    cols = np.concatenate([cols, cols[:2], cols[2:3]])
    vals = np.concatenate([vals, vals[:2], -vals[2:3]])
    return vals.astype(dtype), rows.astype(index_dtype), cols.astype(index_dtype)


def pairs(rng, dtype, index_dtype=np.int32):
    """(package matrix, scipy matrix) built from the same COO entries, for every shape."""
    for shape in SHAPES:
        vals, rows, cols = coo(rng, shape, dtype, index_dtype)
        yield (CSR.from_coo(vals, rows, cols, shape),
               scipy.sparse.csr_matrix((vals, (rows, cols)), shape=shape))


def same_arrays(got: CSR, want):
    """Equal shapes, and equal data, indices and row pointers with equal dtypes."""
    assert got.shape == want.shape and got.nnz == want.nnz
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def same_bits(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_from_coo_sums_duplicates_as_scipy_does(rng, dtype, index_dtype):
    for got, want in pairs(rng, dtype, index_dtype):
        same_arrays(got, want)
    # The cancelled duplicate stays stored as an exact zero, as in scipy.
    got = CSR.from_coo([1.5, -1.5, 2.0], [0, 0, 1], [2, 2, 0], (2, 3))
    assert got.nnz == 2 and np.array_equal(got.data, [0.0, 2.0])
    assert np.array_equal(CSR.from_coo([], [], [], (2, 2), dtype=complex).indptr, [0, 0, 0])


def test_sum_duplicates_matches_scipy(rng):
    # Unsorted rows with repeats, given as CSR arrays.
    indptr = np.array([0, 4, 4, 7], dtype=np.int32)
    indices = np.array([3, 0, 3, 1, 2, 2, 0], dtype=np.int32)
    data = rng.normal(size=7) + 1j * rng.normal(size=7)
    want = scipy.sparse.csr_matrix((data.copy(), indices.copy(), indptr.copy()), shape=(3, 4))
    want.sum_duplicates()
    same_arrays(CSR(data, indices, indptr, (3, 4)).sum_duplicates(), want)
    canonical = CSR.from_coo(data, [0, 0, 1, 1, 2, 2, 2], [0, 1, 0, 1, 0, 1, 2], (3, 4))
    assert canonical.sum_duplicates() is canonical


@pytest.mark.parametrize("dtype", [float, complex])
def test_transpose_negate_and_subtract(rng, dtype):
    built = list(pairs(rng, dtype))
    for (got, want), (other, other_want) in zip(built, built[1:] + built[:1]):
        same_arrays(got.transpose(), want.T.tocsr())
        same_arrays(got.transpose(), want.tocsc().T)  # A's CSC arrays
        same_arrays(-got, -want)
        same_arrays(got - got, want - want)  # every entry cancels and is dropped
        if other.shape == got.shape:
            same_arrays(got - other, want - other_want)
        vals, rows, cols = coo(rng, got.shape, complex)  # complex less real data too
        same_arrays(got - CSR.from_coo(vals, rows, cols, got.shape),
                    want - scipy.sparse.csr_matrix((vals, (rows, cols)), shape=got.shape))
    with pytest.raises(ValueError, match="differ"):
        built[2][0] - built[3][0]


@pytest.mark.parametrize("dtype", [float, complex])
def test_rows_diagonal_and_sums_of_moduli(rng, dtype):
    for got, want in pairs(rng, dtype):
        M, N = got.shape
        assert np.array_equal(got.rows(), want.tocoo().row)
        same_bits(got.diagonal(), want.diagonal())
        mag = abs(want)
        same_bits(got.abs_row_sums(), mag @ np.ones(N))
        same_bits(got.abs_col_sums(), np.asarray(mag.sum(axis=0)).ravel())
        for j in range(N):
            assert got.column_abs_sum(j) == float(abs(want[:, j]).sum())


@pytest.mark.parametrize("dtype", [float, complex])
def test_products(rng, dtype):
    for got, want in pairs(rng, dtype):
        M, N = got.shape
        v = rng.normal(size=N) + 1j * rng.normal(size=N)
        same_bits(got.dot(v), want @ v)
        same_bits(got.dot(v.real), want @ v.real)
        w = rng.normal(size=M) + 1j * rng.normal(size=M)
        same_bits(got.tdot(w), want.T @ w)  # scipy's product with A^T in CSC
        same_bits(got.tdot(w.real), want.T @ w.real)
        for k in (1, 3):
            block = rng.normal(size=(N, k)) + 1j * rng.normal(size=(N, k))
            same_bits(got.dot(block), want @ block)
            same_bits(got.dot(np.asfortranarray(block)), want @ np.asfortranarray(block))
