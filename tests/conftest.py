import math

import numpy as np
import pytest
from scipy import special as sp

from schroflow import (AngularProblem, ModeIndex, RadialQuadrature, build_table,
                       circle_eigensystem, constant_a_spectrum, make_mode)


@pytest.fixture(scope="session")
def quad_default():
    return RadialQuadrature()


@pytest.fixture(scope="session")
def table_loss():
    """N=3, constant a=-0.1875: the loss-of-decay witness problem."""
    eigsys = constant_a_spectrum(3, -0.1875, 12)
    return build_table(eigsys, len(eigsys))


@pytest.fixture(scope="session")
def table_free():
    eigsys = constant_a_spectrum(3, 0.0, 12)
    return build_table(eigsys, len(eigsys))


@pytest.fixture(scope="session")
def mode01_loss(table_loss):
    return make_mode(ModeIndex(0, 1), table_loss)


@pytest.fixture(scope="session")
def mode01_free(table_free):
    return make_mode(ModeIndex(0, 1), table_free)


@pytest.fixture(scope="session")
def aharonov_bohm_series():
    """The N=2 kernel series for flux phi and constant a, summed over its
    lowest K modes as plane waves: psi_k = e^{im theta}/sqrt(2 pi) with
    mu = (m+phi)^2 + a, so j_{-alpha}(rho) = J_{sqrt(mu)}(rho)."""
    def series(phi, a, K, x, y, rho):
        ms = sorted(range(-8, 9), key=lambda m: (m + phi) ** 2)[:K]
        return sum(np.exp(-0.5j * math.pi * math.sqrt((m + phi) ** 2 + a))
                   * sp.jv(math.sqrt((m + phi) ** 2 + a), rho)
                   * np.exp(1j * m * (x - y)) / (2.0 * math.pi) for m in ms)
    return series


@pytest.fixture(scope="session")
def magnetic_circle():
    """The benchmark's magnetic spectrum: first-harmonic flux at truncation
    200, a 401 x 401 matrix, lowest 24 pairs."""
    prob = AngularProblem(scalar_coeff=0.2, truncation=200,
                          magnetic_coeff={0: 0.3, 1: complex(0.1, 0.2), -1: complex(0.1, -0.2)})
    return circle_eigensystem(prob, count=24)
