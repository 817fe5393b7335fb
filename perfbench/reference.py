"""Closed forms and a dense Dirichlet solve, computed without fracvar.

Every closed form is evaluated in mpmath at ``DPS`` digits and rounded to
float64 once, at the end.  Operators act on [0, 1] with the weight pair
(p, q): p weights the left integral over (0, t), q the right one over (t, 1).
The Riemann-Liouville kernel of order mu is s^(mu-1) / Gamma(mu).

Nothing here is frozen: every reference is recomputed from these formulas
in each run, so there are no stored values to regenerate.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

DPS = 30


def _mpf_nodes(t: np.ndarray) -> list:
    return [mp.mpf(float(x)) for x in t]


def rl_K_affine(t: np.ndarray, order: float, p: float, q: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """K applied to 1 and to t with the RL kernel of the given order:

        K1(t) = (p t^a + q (1-t)^a) / Gamma(a+1)
        Kt(t) = p t^(a+1) / Gamma(a+2)
                + q (t (1-t)^a / Gamma(a+1) + a (1-t)^(a+1) / Gamma(a+2))
    """
    with mp.workdps(DPS):
        a = mp.mpf(order)
        g1, g2 = mp.gamma(a + 1), mp.gamma(a + 2)
        one, lin = [], []
        for x in _mpf_nodes(t):
            ta, ua = mp.power(x, a), mp.power(1 - x, a)
            one.append((p * ta + q * ua) / g1)
            lin.append(p * x * ta / g2 + q * (x * ua / g1 + a * (1 - x) * ua / g2))
        return np.array(one, dtype=float), np.array(lin, dtype=float)


def rl_B_linear(t: np.ndarray, alpha: float, p: float, q: float) -> np.ndarray:
    """B applied to t: (p t^(1-alpha) + q (1-t)^(1-alpha)) / Gamma(2-alpha)."""
    with mp.workdps(DPS):
        b = 1 - mp.mpf(alpha)
        g = mp.gamma(b + 1)
        return np.array([(p * mp.power(x, b) + q * mp.power(1 - x, b)) / g
                         for x in _mpf_nodes(t)], dtype=float)


def rl_A_linear(t: np.ndarray, alpha: float, p: float, q: float) -> np.ndarray:
    """A applied to t, the derivative of K^(1-alpha) t, on nodes t < 1:

        p t^(1-alpha) / Gamma(2-alpha) + q (alpha - t) (1-t)^(-alpha) / Gamma(2-alpha)
    """
    with mp.workdps(DPS):
        a = mp.mpf(alpha)
        g = mp.gamma(2 - a)
        return np.array([(p * mp.power(x, 1 - a)
                          + q * (a - x) * mp.power(1 - x, -a)) / g
                         for x in _mpf_nodes(t)], dtype=float)


def exp_K_affine(t: np.ndarray, lam: float, p: float, q: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """K applied to 1 and to t with the kernel k(s) = exp(-lam s):

        left  int_0^t k(t-s) ds   = (1 - e^(-lam t)) / lam
        left  int_0^t k(t-s) s ds = (lam t - 1 + e^(-lam t)) / lam^2
        right int_t^1 k(s-t) ds   = (1 - e^(-lam L)) / lam,          L = 1 - t
        right int_t^1 k(s-t) s ds = t (1 - e^(-lam L)) / lam
                                    + (1 - e^(-lam L) (1 + lam L)) / lam^2
    """
    with mp.workdps(DPS):
        lm = mp.mpf(lam)
        one, lin = [], []
        for x in _mpf_nodes(t):
            L = 1 - x
            el, er = mp.exp(-lm * x), mp.exp(-lm * L)
            one.append(p * (1 - el) / lm + q * (1 - er) / lm)
            lin.append(p * (lm * x - 1 + el) / lm ** 2
                       + q * (x * (1 - er) / lm + (1 - er * (1 + lm * L)) / lm ** 2))
        return np.array(one, dtype=float), np.array(lin, dtype=float)


def constant_K_affine(t: np.ndarray, p: float, q: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """K applied to 1 and to t with k(s) = 1: p t + q (1-t) and
    p t^2/2 + q (1-t^2)/2."""
    with mp.workdps(DPS):
        xs = _mpf_nodes(t)
        return (np.array([p * x + q * (1 - x) for x in xs], dtype=float),
                np.array([(p * x * x + q * (1 - x * x)) / 2 for x in xs],
                         dtype=float))


def l1_B_matrix(n: int, alpha: float, p: float, q: float) -> np.ndarray:
    """The L1 discretization of B on n uniform cells of [0, 1], assembled
    from mpmath cell moments m(d) = int_{(d-1)h}^{dh} k(s) ds of the RL
    kernel of order 1 - alpha:

        (B f)_i = p sum_{j<=i} (f_j - f_{j-1})/h m(i-j+1)
                + q sum_{j>i}  (f_j - f_{j-1})/h m(j-i)
    """
    with mp.workdps(DPS):
        mu = 1 - mp.mpf(alpha)
        h = mp.mpf(1) / n
        g = mp.gamma(mu + 1)
        m = [0.0] + [float(mp.power(h, mu) * (mp.power(d, mu) - mp.power(d - 1, mu))
                           / g / h) for d in range(1, n + 1)]
    B = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(1, n + 1):
            c = p * m[i - j + 1] if j <= i else q * m[j - i]
            B[i, j] += c
            B[i, j - 1] -= c
    return B


def dense_dirichlet_1d(n: int, alpha: float, p: float, q: float,
                       u0: float, u1: float, tol: float
                       ) -> tuple[np.ndarray, float]:
    """Minimize E(u) = (B u)^T W (B u) over interior nodes with u(0) = u0,
    u(1) = u1, W the trapezoid weights, by the dense normal equations.

    Returns the interior minimizer and the bound on the max-node distance
    to any iterate whose raw gradient 2 B^T W B u - b has |g_i| <= tol w_i
    (the stopping rule of the CG solver), |x - x*| <= ||H^-1||_inf tol max w,
    doubled to cover the rounding gap between float64 and mpmath moments.
    """
    B = l1_B_matrix(n, alpha, p, q)
    w = np.full(n + 1, 1.0 / n)
    w[0] = w[-1] = 0.5 / n
    Bi, Bb = B[:, 1:n], B[:, [0, n]]
    H = 2.0 * Bi.T @ (w[:, None] * Bi)
    rhs = -2.0 * Bi.T @ (w * (Bb @ np.array([u0, u1])))
    x = np.linalg.solve(H, rhs)
    hinv = np.max(np.sum(np.abs(np.linalg.inv(H)), axis=1))
    return x, 2.0 * hinv * tol * w.max()
