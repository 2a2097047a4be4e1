"""Plain NumPy/SciPy references for the benchmark's three algorithms.

The benchmark checks the program's outputs against these, so nothing
here may go through ``repro``'s compiler or runtime: the functions take
and return NumPy arrays (``scipy.sparse`` for the ALS input) and follow
the same iteration scheme, with the same fixed iteration counts, as
``repro.algorithms``.  They return ``(loss, model)`` where ``model`` maps
a name to an array, the shape the workloads compare against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.special


def l2svm(x: np.ndarray, y: np.ndarray, lam: float, max_iter: int,
          max_inner: int):
    """Squared-hinge L2SVM: nonlinear CG with a Newton line search."""
    n, m = x.shape
    g_old = x.T @ y
    s = g_old.copy()
    w = np.zeros((m, 1))
    xw = np.zeros((n, 1))
    g_old_norm = float((g_old * g_old).sum())
    loss = float("nan")
    for _ in range(max_iter):
        xd = x @ s
        wd = lam * float((w * s).sum())
        dd = lam * float((s * s).sum())
        step_sz = 0.0
        for _ in range(max_inner):
            out = np.maximum(1.0 - y * (xw + step_sz * xd), 0.0)
            g_val = wd + step_sz * dd - float((out * y * xd).sum())
            h_val = dd + float((xd * xd * (out > 0.0)).sum())
            if h_val == 0.0:
                break
            step = g_val / h_val
            step_sz -= step
            if step * step < 1e-18:
                break
        w = w + step_sz * s
        xw = xw + step_sz * xd
        out = np.maximum(1.0 - y * xw, 0.0)
        g_new = x.T @ (out * y) - lam * w
        g_new_norm = float((g_new * g_new).sum())
        loss = float((out * out).sum()) + lam * float((w * w).sum())
        if g_old_norm == 0.0:
            break
        s = (g_new_norm / g_old_norm) * s + g_new
        g_old_norm = g_new_norm
    return loss, {"w": w}


def _masked_product(x: sp.csr_matrix, left: np.ndarray, right: np.ndarray):
    """``(X != 0) * (left @ right.T)`` on X's stored pattern only."""
    coo = x.tocoo()
    values = np.einsum("ij,ij->i", left[coo.row], right[coo.col])
    return sp.csr_matrix((values, (coo.row, coo.col)), shape=x.shape)


def _als_factor_update(x: sp.csr_matrix, fixed: np.ndarray,
                       target: np.ndarray, lam: float, max_inner: int):
    """One CG solve for ``target`` with ``fixed`` held constant."""
    grad = _masked_product(x, target, fixed) @ fixed - x @ fixed + lam * target
    r = grad
    d = -grad
    rr_old = float((r * r).sum())
    rr_init = rr_old
    delta = np.zeros_like(target)
    for _ in range(max_inner):
        if rr_old <= max(1e-16 * rr_init, 1e-300):
            break
        hd = _masked_product(x, d, fixed) @ fixed + lam * d
        dhd = float((d * hd).sum())
        if dhd <= 0:
            break
        alpha = rr_old / dhd
        delta = delta + alpha * d
        r = r + alpha * hd
        rr_new = float((r * r).sum())
        d = -r + (rr_new / rr_old) * d
        rr_old = rr_new
    return target + delta


def als_cg(x: sp.csr_matrix, rank: int, lam: float, max_inner: int,
           seed: int):
    """One outer ALS-CG iteration from the seeded uniform start."""
    n, m = x.shape
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.1, 1.0, (n, rank))
    v = rng.uniform(0.1, 1.0, (m, rank))
    u = _als_factor_update(x, v, u, lam, max_inner)
    v = _als_factor_update(x.T.tocsr(), u, v, lam, max_inner)
    resid = x - _masked_product(x, u, v)
    loss = float(resid.multiply(resid).sum()) + lam * float(
        (u * u).sum() + (v * v).sum()
    )
    return loss, {"U": u, "V": v}


def glm_binomial_probit(x: np.ndarray, y: np.ndarray, lam: float,
                        max_iter: int, max_inner: int):
    """Probit-link binomial GLM by IRLS with an inner CG solve."""
    m = x.shape[1]
    beta = np.zeros((m, 1))
    deviance = float("nan")
    for _ in range(max_iter):
        eta = x @ beta
        mu = 0.5 * (scipy.special.erf(eta / np.sqrt(2.0)) + 1.0)
        mu = np.minimum(np.maximum(mu, 1e-10), 1.0 - 1e-10)
        phi = np.exp(-0.5 * eta * eta) / np.sqrt(2.0 * np.pi)
        weights = (phi * phi) / (mu * (1.0 - mu))
        z_resid = (y - mu) / np.maximum(phi, 1e-10)
        deviance = -2.0 * float(
            (y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu)).sum()
        )
        rhs = x.T @ (weights * z_resid)
        d_sol = np.zeros((m, 1))
        r = -rhs
        p = rhs
        rr_old = float((r * r).sum())
        for _ in range(max_inner):
            if rr_old <= 1e-300:
                break
            ap = x.T @ (weights * (x @ p)) + lam * p
            p_ap = float((p * ap).sum())
            if p_ap <= 0:
                break
            alpha = rr_old / p_ap
            d_sol = d_sol + alpha * p
            r = r + alpha * ap
            rr_new = float((r * r).sum())
            p = -r + (rr_new / rr_old) * p
            rr_old = rr_new
        beta = beta + d_sol
    return deviance, {"beta": beta}
