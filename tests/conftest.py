import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, settings
from numpy.polynomial.legendre import leggauss

from oracles import standard_form
from tlbt.systems import StateSpaceSystem

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def rand_stable(n, m, p, rng, margin=0.3):
    """Random stable system; spectral abscissa at most -margin."""
    g = rng.standard_normal((n, n))
    shift = max(np.linalg.eigvals(g).real.max(), 0.0) + margin + rng.uniform(0.2, 1.0)
    a = g - shift * np.eye(n)
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    return StateSpaceSystem(A=a, B=b, C=c)


def fem_rod(n, m, p):
    """Linear finite elements for the heat equation: E x' = A x + B u."""
    h = 1.0 / (n + 1)
    ones = np.ones(n - 1)
    e = h / 6.0 * (4.0 * np.eye(n) + np.diag(ones, 1) + np.diag(ones, -1))
    a = -(2.0 * np.eye(n) - np.diag(ones, 1) - np.diag(ones, -1)) / h
    return StateSpaceSystem(A=a, B=np.eye(n)[:, :m], C=np.eye(n)[n - p:, :], E=e)


def error_integral_oracle(sys, rom, tbar, panels=128):
    """int_0^tbar ||C e^(A s) B - C1 e^(A11 s) B1||_F^2 ds for the
    augmented system ([A 0; 0 A11], [B; B1], [C, -C1]) in standard form,
    by 4-node composite Gauss-Legendre on uniform panels, with scipy's
    expm. The kernel is formed at each node before it is
    squared: summing the Gramian first and taking tr(C P C^T) afterwards
    leaves only rounding noise once the reduced model is accurate."""
    a, b = standard_form(sys)
    n, r = sys.n, rom.r
    a_aug = np.block([[a, np.zeros((n, r))], [np.zeros((r, n)), rom.A11]])
    b_aug = np.vstack([b, rom.B1])
    c_aug = np.hstack([sys.C, -rom.C1])
    nodes, weights = leggauss(4)
    h = tbar / panels
    # e^(A s) B at the four nodes of a panel, carried to the next by e^(A h)
    x = np.hstack([sla.expm(a_aug * (0.5 * (x + 1.0) * h)) @ b_aug for x in nodes])
    step = sla.expm(a_aug * h)
    p, m = c_aug.shape[0], b_aug.shape[1]
    total = 0.0
    for _ in range(panels):
        kernel = (c_aug @ x).reshape(p, 4, m)
        total += 0.5 * h * float(np.sum(weights * np.sum(kernel**2, axis=(0, 2))))
        x = step @ x
    return total


def rand_spd(n, rng, spread=100.0):
    """Random symmetric positive definite matrix with eigenvalues in [1, spread]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.exp(rng.uniform(0.0, np.log(spread), size=n))
    return q @ np.diag(lam) @ q.T


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def scalar_system():
    return StateSpaceSystem(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
