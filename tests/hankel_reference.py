"""Exact Hankel singular values of two symmetric-definite models, for the tests.

    python tests/hankel_reference.py

writes ``tests/hankel_reference.json``, which the tests read; they do not
run this script. Each model's eigenpairs are known in closed form, so the
values are computed with mpmath at 120 significant digits from the exact
model, without the floating-point matrices:

- ``gen:50,7,6``, the README model: A = (n+1)^2 tridiag(1, -2, 1),
  B the first 7 columns of the identity and C its last 6 rows. With
  theta_k = k pi / (n+1), lambda_k = -(n+1)^2 (2 - 2 cos theta_k) and
  x_k(i) = sqrt(2 / (n+1)) sin(i theta_k).
- ``fem_rod(60, 7, 6)`` of ``conftest``: linear finite elements on a
  uniform mesh of width h = 1 / (n+1), E = (h / 6) tridiag(1, 4, 1) and
  A = -(1 / h) tridiag(-1, 2, -1). The same sines are the eigenvectors,
  with lambda_k = -(6 / h^2) (1 - cos theta_k) / (2 + cos theta_k), and
  scaled so that X^T E X = I.

On such a basis P = X Cp X^T and Q = (E X) Cq (E X)^T, with
Cp = (X^T B)(X^T B)^T o Phi, Cq = (C X)^T (C X) o Phi and
Phi_ij = expm1((l_i + l_j) T) / (l_i + l_j), or -1 / (l_i + l_j) for
T = inf. The squared Hankel singular values are the eigenvalues of
P Q, which are those of Cp Cq, and of the symmetric
D^(1/2) U^T Cq U D^(1/2) with Cp = U D U^T. Each pair of Gramians takes
about 10 s.

For the README model the script also records ``above_cutoff``: how many
exact values exceed ``balance``'s cutoff of 1e-14 sigma_1, the order
n_hat that a balancing resolves when its rounding does not move a value
across the cutoff.
"""
import json
import os

import mpmath as mp

mp.mp.dps = 120

# (name, n, m, p, horizon, number of leading values kept, whether to
# count the values above the cutoff)
CASES = [
    ("gen:50,7,6", 50, 7, 6, "0.05", 9, True),
    ("gen:50,7,6", 50, 7, 6, "inf", 9, True),
    ("fem_rod(60,7,6)", 60, 7, 6, "0.05", 6, False),
]
# balance's cutoff, relative to sigma_1
CUTOFF = mp.mpf("1e-14")

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hankel_reference.json")


def eigenpairs(name, n):
    """Eigenvalues lambda_k and eigenvectors x_k (as lists) of the model."""
    theta = [mp.mpf(k) * mp.pi / (n + 1) for k in range(1, n + 1)]
    sines = [[mp.sin(i * t) for i in range(1, n + 1)] for t in theta]
    if name.startswith("gen:"):
        lam = [-(n + 1) ** 2 * (2 - 2 * mp.cos(t)) for t in theta]
        scale = [mp.sqrt(mp.mpf(2) / (n + 1))] * n
    else:
        h = mp.mpf(1) / (n + 1)
        lam = [-6 / h**2 * (1 - mp.cos(t)) / (2 + mp.cos(t)) for t in theta]
        # x^T E x = (h / 6)(4 + 2 cos theta) (n + 1) / 2 for the unscaled sine
        scale = [1 / mp.sqrt(h / 6 * (4 + 2 * mp.cos(t)) * mp.mpf(n + 1) / 2) for t in theta]
    return lam, [[s * v for v in row] for s, row in zip(scale, sines)]


def core(lam, gen, horizon):
    """(g_i . g_j) Phi_ij for the rows g_k of the generator."""
    n = len(lam)
    c = mp.matrix(n, n)
    for i in range(n):
        for j in range(i, n):
            rate = lam[i] + lam[j]
            phi = -1 / rate if horizon == "inf" else mp.expm1(rate * mp.mpf(horizon)) / rate
            c[i, j] = c[j, i] = mp.fsum(a * b for a, b in zip(gen[i], gen[j])) * phi
    return c


def hankel_singular_values(name, n, m, p, horizon):
    """All n Hankel singular values, largest first."""
    lam, x = eigenpairs(name, n)
    cp = core(lam, [row[:m] for row in x], horizon)
    cq = core(lam, [row[n - p:] for row in x], horizon)
    d, u = mp.eigsy(cp)
    half = mp.diag([mp.sqrt(max(v, 0)) for v in d])
    s2 = mp.eigsy(half * u.T * cq * u * half, eigvals_only=True)
    return sorted((mp.sqrt(max(v, 0)) for v in s2), reverse=True)


def main():
    cases = []
    for name, n, m, p, horizon, count, counted in CASES:
        sigma = hankel_singular_values(name, n, m, p, horizon)
        case = {"model": name, "horizon": horizon,
                "singular_values": [mp.nstr(v, 20) for v in sigma[:count]]}
        if counted:
            case["above_cutoff"] = sum(v > CUTOFF * sigma[0] for v in sigma)
        cases.append(case)
        print(name, horizon, mp.nstr(sigma[0], 16))
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"digits": mp.mp.dps, "cases": cases}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
