"""README.md's Python examples, run in order in one namespace.

Keeps the README in step with the API: a renamed export or changed
default fails here rather than in a reader's first session.
"""

import re
from pathlib import Path

import numpy as np
import numpy.testing as npt

from khnn import tensor as T

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_examples_run(capsys):
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace = {}
    exec(compile(blocks[0], "README.md quickstart", "exec"), namespace)
    npt.assert_array_equal(namespace["model"].predict(namespace["x"]).round().ravel(),
                           [0.0, 1.0, 1.0, 0.0])
    assert "[0. 1. 1. 0.]" in capsys.readouterr().out

    exec(compile(blocks[1], "README.md convolution example", "exec"), namespace)
    assert namespace["model"].predict(np.zeros((2, 16, 16, 4))).shape == (2, 1)


def test_tensor_names_in_the_prose_exist():
    names = set(re.findall(r"khnn\.tensor\.(\w+)", README.read_text()))
    assert names, "README names no khnn.tensor op"
    assert sorted(name for name in names if not hasattr(T, name)) == []
