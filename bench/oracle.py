"""Reference computations made apart from crosspeak.

Nothing here imports the package.  Spin-1 Hamiltonians are written out
longhand and their eigenvalues come from the closed-form (trigonometric)
solution of the real symmetric 3x3 eigenproblem, so agreement with the
program is a cross-check, not the same LAPACK call twice.  Fields in
gauss, frequencies in MHz.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

# published NV-NV-P1 three-body fields along [100] (gauss)
P1_PUBLISHED_FIELDS = (0.0, 3.89, 5.96, 6.58, 17.90, 28.93, 35.87, 49.44,
                       81.33, 83.28, 137.52, 154.20, 246.34)

# symmetry axes of the four <111> orientation classes
CLASS_AXES = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / math.sqrt(3.0)


def eigvals_sym3(a) -> tuple[float, float, float]:
    """Ascending eigenvalues of a real symmetric 3x3 matrix, closed form."""
    p1 = a[0][1] ** 2 + a[0][2] ** 2 + a[1][2] ** 2
    q = (a[0][0] + a[1][1] + a[2][2]) / 3.0
    if p1 == 0.0:
        return tuple(sorted((a[0][0], a[1][1], a[2][2])))
    p2 = (a[0][0] - q) ** 2 + (a[1][1] - q) ** 2 + (a[2][2] - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = [[(a[i][j] - (q if i == j else 0.0)) / p for j in range(3)] for i in range(3)]
    det = (b[0][0] * (b[1][1] * b[2][2] - b[1][2] * b[2][1])
           - b[0][1] * (b[1][0] * b[2][2] - b[1][2] * b[2][0])
           + b[0][2] * (b[1][0] * b[2][1] - b[1][1] * b[2][0]))
    r = min(1.0, max(-1.0, det / 2.0))
    phi = math.acos(r) / 3.0
    hi = q + 2.0 * p * math.cos(phi)
    lo = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return lo, 3.0 * q - hi - lo, hi


def probe_frequencies(d: float, gamma: float, b_par: float, b_perp: float):
    """(lower, upper) ms=0 -> ms=-1/+1 frequencies of a bare S=1 defect
    with E=0, from the field components along and across its axis.

    Basis |+1>, |0>, |-1>:  H = D Sz^2 + gamma (b_par Sz + b_perp Sx).
    """
    z = gamma * b_par
    x = gamma * b_perp / math.sqrt(2.0)
    e0, e1, e2 = eigvals_sym3([[d + z, x, 0.0], [x, 0.0, x], [0.0, x, d - z]])
    return e1 - e0, e2 - e0


def probe_frequencies_100(d: float, gamma: float, b: float):
    """Probe frequencies for a field of b gauss along [100]; every <111>
    class sits at the same angle (cos = 1/sqrt3) to it."""
    return probe_frequencies(d, gamma, b / math.sqrt(3.0), b * math.sqrt(2.0 / 3.0))


def crossing_field(d_nv: float, d_target: float, gamma: float,
                   lo: float = 15.0, hi: float = 145.0) -> float:
    """Field along [100] where the NV lower branch meets the target's
    upper branch, by Brent's method on the longhand Hamiltonians."""

    def gap(b: float) -> float:
        return (probe_frequencies_100(d_nv, gamma, b)[0]
                - probe_frequencies_100(d_target, gamma, b)[1])

    return brentq(gap, lo, hi, xtol=1e-10, rtol=1e-14, maxiter=200)


def field_axis(phi_deg: float, theta_deg: float) -> np.ndarray:
    """Rz(theta) Ry(phi) [1, 0, 0]: the goniometer convention of `map`."""
    p, t = math.radians(phi_deg), math.radians(theta_deg)
    return np.array([math.cos(p) * math.cos(t), math.cos(p) * math.sin(t), -math.sin(p)])


def lorentzian_sum(d_nv: float, gamma: float, amplitude: float, axis,
                   linewidth: float) -> float:
    """Unnormalised map value: sum over class pairs and branch pairs of
    1 / (1 + (detuning / HWHM)^2)."""
    freqs = []
    for n in CLASS_AXES:
        c = float(n @ axis)
        freqs.append(probe_frequencies(
            d_nv, gamma, amplitude * c, amplitude * math.sqrt(max(0.0, 1.0 - c * c))
        ))
    hwhm = linewidth / 2.0
    total = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            for fa in freqs[a]:
                for fb in freqs[b]:
                    total += 1.0 / (1.0 + ((fa - fb) / hwhm) ** 2)
    return total
