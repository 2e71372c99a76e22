import numpy as np
import pytest

import uhfflow.dense as dense
from uhfflow.algebra import AlgebraParams, LocalOperator


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def p2():
    return AlgebraParams(2, 1)


@pytest.fixture
def p3():
    return AlgebraParams(3, 1)


@pytest.fixture
def p2d2():
    return AlgebraParams(2, 2)


@pytest.fixture
def pauli(p2):
    """sigma_x, sigma_z, sigma_x sigma_z and the identity at site 0."""
    sx = LocalOperator.site_word(p2, (0,), 1, 0)
    sz = LocalOperator.site_word(p2, (0,), 0, 1)
    sxz = LocalOperator.site_word(p2, (0,), 1, 1)
    one = LocalOperator.identity(p2)
    return sx, sz, sxz, one


@pytest.fixture(scope="session")
def weyl_matrix():
    """The dense generator's matrix in the window's Weyl basis, built in the tests.

    Column b holds the Weyl coefficients (``dense._weyl_coefficients``) of
    ``dense.window_action`` applied to the realized string U_b, in
    ``window_basis`` order; it shares no phase convention with the kernel.
    """
    def build(L, win, closure_mode):
        strings = np.array([dense.realize(LocalOperator.weyl(win.params, lab), win)
                            for lab in dense.window_basis(win.params, win.sites)])
        images = dense.window_action(L, win, closure_mode)(strings)
        return dense._weyl_coefficients(images, win.params.N, len(win.sites)).T

    return build
