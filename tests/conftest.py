import pytest

from congsym.groups import close_group, coset_table
from congsym.families import build_family
from congsym import linalg as la
from congsym import spaces as sp
from congsym import spectra as spec


def space_for(tag, param, k=2):
    return sp.build_space(coset_table(build_family(tag, param)), k)


def kernel_of_factor_power(m, g, e):
    """ker g(m)^e by Horner evaluation of g(m), e - 1 products and one
    rational kernel: the reference for linalg.primary_components."""
    k = la.mat_poly_eval(g, m)
    ke = k
    for _ in range(e - 1):
        ke = la.mat_mul(ke, k)
    return la.kernel(ke)


@pytest.fixture(scope="session")
def s_gamma0_11():
    return space_for("gamma0", 11)


@pytest.fixture(scope="session")
def ctx_gamma0_11(s_gamma0_11):
    return spec.SpectralContext(s_gamma0_11)


@pytest.fixture(scope="session")
def s_ns_plus_13():
    return space_for("ns_plus", 13)


@pytest.fixture(scope="session")
def ctx_ns_plus_13(s_ns_plus_13):
    return spec.SpectralContext(s_ns_plus_13)


@pytest.fixture(scope="session")
def s_level1_k12():
    return space_for("gamma_full", 1, k=12)


@pytest.fixture(scope="session")
def g_8e1():
    return close_group(8, [(7, 0, 0, 7), (2, 3, 3, 5), (0, 7, 7, 7),
                           (3, 0, 0, 3), (4, 7, 7, 3)])


@pytest.fixture(scope="session")
def g_h155():
    return close_group(16, [(1, 3, 12, 3), (1, 1, 12, 7), (1, 3, 0, 3),
                            (1, 0, 2, 3)])


@pytest.fixture(scope="session")
def g_level16():
    return close_group(16, [(2, 1, 3, 2), (0, 3, 5, 8), (1, 0, 0, 5),
                            (1, 8, 0, 3)])
