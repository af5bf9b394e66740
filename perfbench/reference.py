"""The benchmark's own reference for the certificate eps.

eps certifies max_{t<=T} ||y - y_r|| <= eps ||u||_{L2[0,T]}; by
Cauchy-Schwarz it is sound exactly when

    eps^2 >= int_0^T ||C e^{As} B - C1 e^{A11 s} B1||_F^2 ds.

This module evaluates that integral by composite Gauss-Legendre
quadrature on uniform panels. Each node's n x m block e^{A s} B is
carried from one panel to the next by a single e^{A h}, so the cost
after the exponentials is O(n^2 m N). It shares no code with tlbt: the
exponentials come from scipy, and a mass matrix E enters as
(E^{-1} A, E^{-1} B, C).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.polynomial.legendre import leggauss

NODES = 4
PANELS = (64, 128)


@dataclass(frozen=True)
class Reference:
    """The integral at the finer panel count, and the change from the
    coarser one as the quadrature slack."""

    value: float
    slack: float

    def admits(self, eps: float) -> bool:
        return eps * eps >= self.value - self.slack


def standard_form(a, b, e=None):
    """(A, B) of x' = A x + B u for E x' = A x + B u."""
    if e is None:
        return np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.linalg.solve(e, a), np.linalg.solve(e, b)


def _node_outputs(a, b, c, tbar):
    """C e^{A s} B at every Gauss node, for each panel count in PANELS.

    Returns {panels: (panels, NODES, p, m) array}. The finer grid's
    panel width is half the coarser one's, so the coarser grid reuses
    its exponentials: e^{A 2 s} B = e^{A s} (e^{A s} B).
    """
    coarse, fine = PANELS  # fine == 2 * coarse
    nodes, _ = leggauss(NODES)
    h_fine = tbar / fine
    offsets = 0.5 * (nodes + 1.0) * h_fine
    step = sla.expm(a * h_fine)
    starts = [sla.expm(a * s) for s in offsets]
    blocks = {
        fine: np.hstack([x @ b for x in starts]),
        coarse: np.hstack([x @ (x @ b) for x in starts]),
    }
    out = {}
    for panels, x in blocks.items():
        hops = fine // panels
        p, m = c.shape[0], b.shape[1]
        y = np.empty((panels, NODES, p, m))
        for k in range(panels):
            y[k] = (c @ x).reshape(p, NODES, m).transpose(1, 0, 2)
            for _ in range(hops):
                x = step @ x
        out[panels] = y
    return out


def _integral(diff, tbar, panels):
    _, weights = leggauss(NODES)
    h = tbar / panels
    sq = np.sum(diff * diff, axis=(2, 3))
    return float(0.5 * h * np.sum(sq * weights[None, :]))


def error_references(a, b, c, roms, tbar):
    """Reference integrals for several reduced models of one system.

    ``a, b, c`` are the standard-form full model; ``roms`` is a list of
    (A11, B1, C1). The full model's node outputs are computed once.
    """
    full = _node_outputs(a, b, c, tbar)
    refs = []
    for a11, b1, c1 in roms:
        red = _node_outputs(np.asarray(a11), np.asarray(b1), np.asarray(c1), tbar)
        vals = [_integral(full[k] - red[k], tbar, k) for k in PANELS]
        refs.append(Reference(value=vals[-1], slack=abs(vals[-1] - vals[0])))
    return refs
