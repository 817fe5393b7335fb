"""The closed forms the tests compare against, checked in mpmath.

Each closed form is checked at 50-digit working precision against direct
quadrature of the operator's defining integral, independently of fracvar,
so a transcription error in a closed form fails here:

  * K^a (left) applied to 1    ->  t^a / Gamma(1+a)
  * K^a (left) applied to t^2  ->  2 t^{2+a} / Gamma(3+a)
  * B^a (left) applied to t    ->  t^{1-a} / Gamma(2-a)
  * B^a (left) applied to t^2  ->  2 t^{2-a} / Gamma(3-a)
  * the time factor of the half-order wave composition A^{1/2} (right)
    after B^{1/2} (left) applied to t on [0, 1],
    g(t) = (2/pi) ( ln((1+sqrt(1-t))/sqrt(t)) - 1/sqrt(1-t) ).

The frozen float constants, in the test modules and in the oracles of the
shipped configs, must be the closed forms correctly rounded.
"""

import json
from pathlib import Path

import mpmath as mp
import pytest

from test_acceptance import GAMMA_35_HALF
from test_operators import GAMMA_15_INV

DPS = 50
TOL = mp.mpf("1e-20")
HALF = mp.mpf(1) / 2
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(autouse=True)
def precision():
    with mp.workdps(DPS):
        yield


def k_left(f, t, a):
    """Left integral of order a on [0, t]: int (t-s)^(a-1) f(s) ds / Gamma(a)."""
    return mp.quad(lambda s: (t - s) ** (a - 1) * f(s), [0, t]) / mp.gamma(a)


def k_right(f, t, a):
    """Right integral of order a on [t, 1]: int (s-t)^(a-1) f(s) ds / Gamma(a)."""
    return mp.quad(lambda s: (s - t) ** (a - 1) * f(s), [t, 1]) / mp.gamma(a)


def b_left(f, t, a):
    """Left Caputo-type derivative of order a: K^(1-a) of f' at t."""
    return k_left(lambda s: mp.diff(f, s), t, 1 - a)


@pytest.mark.parametrize("label, closed, quadrature", [
    ("K(1) at 0.7", lambda: mp.sqrt(mp.mpf("0.7")) / mp.gamma(1.5),
     lambda: k_left(lambda s: mp.mpf(1), mp.mpf("0.7"), HALF)),
    ("K(t^2) at 0.7", lambda: 2 * mp.mpf("0.7") ** 2.5 / mp.gamma(3.5),
     lambda: k_left(lambda s: s * s, mp.mpf("0.7"), HALF)),
    ("B(t) at 0.25", lambda: mp.sqrt(mp.mpf("0.25")) / mp.gamma(1.5),
     lambda: b_left(lambda s: s, mp.mpf("0.25"), HALF)),
    ("B(t^2) at 0.7", lambda: 2 * mp.mpf("0.7") ** 1.5 / mp.gamma(2.5),
     lambda: b_left(lambda s: s * s, mp.mpf("0.7"), HALF)),
])
def test_operator_closed_forms(label, closed, quadrature):
    assert abs(closed() - quadrature()) < TOL, label


def b_image(s):
    """B^{1/2} (left) of t: the B(t) closed form above."""
    return 2 * mp.sqrt(s) / mp.sqrt(mp.pi)


def inner_closed(t):
    """K^{1/2} (right) of the B-image 2 sqrt(s)/sqrt(pi), in closed form
    (substitute s = t + u^2)."""
    return (2 / mp.pi) * (mp.sqrt(1 - t)
                          + t * mp.log((1 + mp.sqrt(1 - t)) / mp.sqrt(t)))


def g_closed(t):
    return (2 / mp.pi) * (mp.log((1 + mp.sqrt(1 - t)) / mp.sqrt(t))
                          - 1 / mp.sqrt(1 - t))


@pytest.mark.parametrize("t", ["0.1", "0.25", "0.5", "0.75", "0.9"])
def test_wave_time_factor(t):
    # Differentiating a nested adaptive quadrature is fragile, so g is
    # checked in two stages: the inner half-integral of the B-image
    # against direct quadrature, then g = dI/dt on
    # the closed form only, where mpmath reaches full working precision.
    t = mp.mpf(t)
    assert abs(inner_closed(t) - k_right(b_image, t, HALF)) < TOL
    assert abs(g_closed(t) - mp.diff(inner_closed, t)) < TOL


@pytest.mark.parametrize("frozen, closed", [
    (GAMMA_15_INV, lambda: 1 / mp.gamma(1.5)),
    (GAMMA_35_HALF, lambda: 2 / mp.gamma(3.5)),
])
def test_frozen_constants_are_correctly_rounded(frozen, closed):
    assert frozen == float(closed())


@pytest.mark.parametrize("name, profile, closed", [
    ("op_apply_halfint.json", "sqrt(t1)", lambda: 1 / mp.gamma(1.5)),
    ("convergence_K_quadratic.json", "t1^2.5", lambda: 2 / mp.gamma(3.5)),
])
def test_config_oracles_are_correctly_rounded(name, profile, closed):
    problem = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))[
        "problem"]
    coefficient, rest = problem["oracle"].split("*", 1)
    assert rest == profile
    assert float(coefficient) == float(closed())
