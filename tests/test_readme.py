"""The README's Python examples run as written and do what their comments
say."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def namespace():
    """The README's ```python blocks run in order in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    return ns


def test_half_integral_of_one(namespace):
    # "out.values[0]  ==  2 sqrt(t / pi)  up to quadrature error"
    t = namespace["t"]
    want = 2.0 * np.sqrt(t / math.pi)
    assert np.max(np.abs(namespace["out"].values[0] - want)) <= 1e-14


def test_dirichlet_solution_is_optimal(namespace):
    # The printed gradient norm and interior BVP residual are within the
    # solver tolerance.
    spec, result = namespace["spec"], namespace["result"]
    residual = namespace["interior_max_abs"](
        namespace["bvp_residual"](spec, result.field))
    assert result.gradient_norm <= spec.tol
    assert residual <= spec.tol
