"""The public names of the package and the README's library sketch."""

import ast
import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np

import lieiso

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    assert [name for name in lieiso.__all__ if not hasattr(lieiso, name)] == []


def test_readme_library_sketch_prints_its_commented_results():
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(sketch, "README.md", "exec"), namespace)
    *_, tag, index, witnesses = out.getvalue().splitlines()
    np.testing.assert_allclose(namespace["a"].ric, np.diag([4.0, -1.0, -4.0]), atol=1e-12)
    assert tag == "TranslationsOnly"
    assert index == "1"
    witnesses = ast.literal_eval(witnesses)
    assert witnesses and all(w["mu"] == math.sqrt(0.25) for w in witnesses)
