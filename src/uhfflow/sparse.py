"""Compressed sparse row matrices on scipy's compiled sparsetools kernels.

Every window matrix of the package is a :class:`CSR`: its ``data``,
``indices`` and ``indptr`` arrays (one index dtype, which this module's
constructors make int32 while the sizes fit) and its ``shape``.  It has
only the operations the package uses, and each one makes the calls that
``scipy.sparse`` makes for it, in the same order, so entries and
products are scipy's to the bit:

* :meth:`CSR.from_coo` (``coo_tocsr``, then ``csr_has_canonical_format``,
  ``csr_has_sorted_indices``, ``csr_sort_indices`` and
  ``csr_sum_duplicates``, as ``csr_matrix((v, (i, j)))``; a duplicate
  sum that is exactly zero stays stored, as in scipy);
* :meth:`CSR.transpose` (``csr_tocsc``: A^T in CSR, which are A's CSC
  arrays), negation, and :meth:`CSR.__sub__` (``csr_minus_csr``, which
  drops exact zeros);
* :meth:`CSR.diagonal` (``csr_diagonal``), the row and column sums of
  |A| (``csr_matvec`` and ``csc_matvec`` on a vector of ones, as scipy's
  ``|A| @ 1`` and ``1 @ |A|``) and one column's modulus sum (numpy's sum
  of its entries in row order, as scipy's ``abs(A[:, j]).sum()``);
* products: :meth:`CSR.dot` (``csr_matvec`` for a vector or a one-column
  block, ``csr_matvecs`` for a block of more columns, read in C order,
  as scipy dispatches them) and :meth:`CSR.tdot`, A^T x (``csc_matvec``).

The kernels live in scipy's extension ``scipy/sparse/_sparsetools*.so``,
which needs numpy only.  It is loaded from its file path, which
``importlib.util.find_spec("scipy")`` finds without running scipy's
package ``__init__``, so ``scipy.sparse`` and its array-API shim (which
pulls in ``numpy.f2py`` and ``numpy.testing``) are never imported.  When
the file is not there, ``scipy.sparse._sparsetools`` is imported the
normal way: the same functions, so there is one arithmetic path either
way.  Checked against scipy 1.17.1 (``pyproject.toml`` allows >= 1.10);
``tests/test_sparse.py`` compares every operation with ``scipy.sparse``
on the installed release, through both loaders.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from typing import NamedTuple

import numpy as np

_INT32_MAX = np.iinfo(np.int32).max


def _sparsetools(scipy_dir: str | None):
    """scipy's sparsetools extension, loaded from ``scipy_dir``; imported when None or absent."""
    if scipy_dir is not None:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(scipy_dir, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                # The name's last part selects the extension's init function.
                loader = importlib.machinery.ExtensionFileLoader(__name__ + "._sparsetools", path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(loader.name, loader))
                loader.exec_module(module)
                return module
    import scipy.sparse._sparsetools

    return scipy.sparse._sparsetools


def _scipy_dir() -> str | None:
    spec = importlib.util.find_spec("scipy")
    locations = spec and spec.submodule_search_locations
    return locations[0] if locations else None


_st = _sparsetools(_scipy_dir())


def index_dtype(maxval: int) -> type:
    """int32 for arrays whose entries and length are at most ``maxval``, if it fits; else int64."""
    return np.int32 if maxval <= _INT32_MAX else np.int64


class CSR(NamedTuple):
    """A sparse matrix in compressed sparse row form.

    Row i holds ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``; ``indices`` and ``indptr`` share
    one integer dtype.  The package's matrices are canonical: each row's
    columns are sorted and distinct.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @staticmethod
    def from_coo(data, rows, cols, shape: tuple[int, int], dtype=None) -> CSR:
        """The matrix with entries ``data`` at (``rows``, ``cols``), duplicates summed."""
        M, N = shape
        data = np.asarray(data, dtype=dtype)
        idx = index_dtype(max(M, N, data.size))
        rows, cols = np.asarray(rows, dtype=idx), np.asarray(cols, dtype=idx)
        indptr, indices = np.empty(M + 1, dtype=idx), np.empty(data.size, dtype=idx)
        out = np.empty_like(data)
        _st.coo_tocsr(M, N, data.size, rows, cols, data, indptr, indices, out)
        return CSR(out, indices, indptr, (M, N)).sum_duplicates()

    def sum_duplicates(self) -> CSR:
        """The matrix with each row's columns sorted and repeated ones summed, in place.

        A canonical matrix is returned as it is.  Otherwise the arrays are
        changed in place, as ``scipy.sparse``'s ``sum_duplicates`` changes
        them, and the returned matrix holds their first ``nnz`` entries.
        """
        M, N = self.shape
        if _st.csr_has_canonical_format(M, self.indptr, self.indices):
            return self
        if not _st.csr_has_sorted_indices(M, self.indptr, self.indices):
            _st.csr_sort_indices(M, self.indptr, self.indices, self.data)
        _st.csr_sum_duplicates(M, N, self.indptr, self.indices, self.data)
        return self._replace(data=self.data[:self.nnz], indices=self.indices[:self.nnz])

    def rows(self) -> np.ndarray:
        """The row of each stored entry (COO rows)."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def transpose(self) -> CSR:
        """A^T, each row's columns sorted whatever A's order: its arrays are A's in CSC."""
        M, N = self.shape
        idx = index_dtype(max(self.nnz, M, N))
        indptr, indices = np.empty(N + 1, dtype=idx), np.empty(self.nnz, dtype=idx)
        data = np.empty_like(self.data)
        _st.csr_tocsc(M, N, self.indptr.astype(idx, copy=False),
                      self.indices.astype(idx, copy=False), self.data, indptr, indices, data)
        return CSR(data, indices, indptr, (N, M))

    def __neg__(self) -> CSR:
        return self._replace(data=-self.data)

    def __sub__(self, other: CSR) -> CSR:
        """A - B for canonical A and B of one shape; entries that cancel exactly are dropped."""
        if self.shape != other.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        M, N = self.shape
        most = self.nnz + other.nnz
        idx = index_dtype(max(most, M, N))
        indptr, indices = np.empty(M + 1, dtype=idx), np.empty(most, dtype=idx)
        data = np.empty(most, dtype=np.result_type(self.data, other.data))
        _st.csr_minus_csr(M, N, self.indptr.astype(idx, copy=False),
                          self.indices.astype(idx, copy=False), self.data,
                          other.indptr.astype(idx, copy=False),
                          other.indices.astype(idx, copy=False), other.data,
                          indptr, indices, data)
        nnz = int(indptr[-1])
        return CSR(data[:nnz], indices[:nnz], indptr, (M, N))

    def diagonal(self) -> np.ndarray:
        M, N = self.shape
        out = np.empty(min(M, N), dtype=self.data.dtype)
        _st.csr_diagonal(0, M, N, self.indptr, self.indices, self.data, out)
        return out

    def abs_row_sums(self) -> np.ndarray:
        """sum_j |a_ij| for every row i, each row's entries added in column order."""
        M, N = self.shape
        out = np.zeros(M)
        _st.csr_matvec(M, N, self.indptr, self.indices, np.abs(self.data), np.ones(N), out)
        return out

    def abs_col_sums(self) -> np.ndarray:
        """sum_i |a_ij| for every column j, each column's entries added in row order."""
        M, N = self.shape
        out = np.zeros(N)
        _st.csc_matvec(N, M, self.indptr, self.indices, np.abs(self.data), np.ones(M), out)
        return out

    def column_abs_sum(self, j: int) -> float:
        """sum_i |a_ij| of column j, its entries added in row order by ``np.sum``."""
        return float(np.abs(self.data[self.indices == j]).sum())

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector or a block of columns, as a fresh array."""
        M, N = self.shape
        out = np.zeros((M, *x.shape[1:]), dtype=np.result_type(self.data, x))
        if x.ndim == 1 or x.shape[1] == 1:
            _st.csr_matvec(M, N, self.indptr, self.indices, self.data, x.reshape(-1),
                           out.reshape(-1))
        else:
            _st.csr_matvecs(M, N, x.shape[1], self.indptr, self.indices, self.data,
                            np.ascontiguousarray(x).reshape(-1), out.reshape(-1))
        return out

    def tdot(self, x: np.ndarray) -> np.ndarray:
        """A^T x for a vector x: A's arrays read as the CSC arrays of A^T."""
        M, N = self.shape
        out = np.zeros(N, dtype=np.result_type(self.data, x))
        _st.csc_matvec(N, M, self.indptr, self.indices, self.data, x, out)
        return out
