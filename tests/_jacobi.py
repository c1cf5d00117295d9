"""Dense eigensolver used only as a test oracle.

Cyclic Jacobi rotations on a real symmetric matrix. Deliberately
independent of the routines under test: no shared code, no LAPACK
eigensolver, just plane rotations until the off-diagonal mass is
gone. Intended for n <= 60.
"""

import math

import numpy as np


def jacobi_eigenvalues(a, tol=1e-14, max_sweeps=60):
    """Eigenvalues of a real symmetric matrix, ascending."""
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=1e-12, atol=1e-12):
        raise ValueError("matrix is not symmetric")
    a = (a + a.T) / 2
    n = a.shape[0]
    scale = max(float(np.abs(a).max()), 1e-300)
    for _ in range(max_sweeps):
        off = math.sqrt(max((a * a).sum() - (np.diag(a) ** 2).sum(), 0.0))
        if off <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    return np.sort(np.diag(a))


def jacobi_spectral_radius(h):
    """Largest absolute eigenvalue; accepts real symmetric or complex
    hermitian input (the latter through its real 2n x 2n embedding)."""
    h = np.asarray(h)
    if np.iscomplexobj(h):
        re, im = h.real, h.imag
        h = np.block([[re, -im], [im, re]])
    vals = jacobi_eigenvalues(h)
    return float(np.abs(vals).max())
