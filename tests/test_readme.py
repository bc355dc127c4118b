"""README's "Library quick start" block runs against the public API."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"

# What the block leaves to its reader: eight stations in a Scandinavian
# latitude/longitude box and a random walk over them, row n predicting row n + 1.
PREAMBLE = """
import numpy as np
rng = np.random.default_rng(0)
positions = np.column_stack([rng.uniform(55.0, 69.0, 8), rng.uniform(11.0, 24.0, 8)])
series = np.cumsum(rng.normal(size=(26, 8)), axis=0)
X_train, T_train, X_test = series[:20], series[1:21], series[20:25]
"""


def quick_start_block():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library quick start\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under '## Library quick start'"
    return match.group(1)


def test_quick_start_runs():
    namespace = {}
    exec(compile(PREAMBLE + quick_start_block(), str(README), "exec"), namespace)
    predictions, rho = namespace["predictions"], namespace["model"].rho
    assert predictions.shape == (5, 8) and np.isfinite(predictions).all()
    # the learned weights lie on the boundary of the block's l1 ball of radius 5
    assert np.all(rho >= 0) and np.sum(rho) == pytest.approx(5.0, rel=1e-12)
