"""FRAME file round trips and header validation."""

import numpy as np
import pytest

from qswarm import DomainError, read_frame, write_frame


@pytest.mark.parametrize("shape", [(7,), (4, 5), (3, 3, 3)])
def test_roundtrip(tmp_path, shape):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(shape)
    path = tmp_path / "a.frame"
    write_frame(path, values, time=1.25)
    fr = read_frame(path)
    assert fr.dims == shape
    assert fr.time == 1.25
    assert np.array_equal(fr.values, values)  # %.17g is exact for doubles


def test_header_grammar(tmp_path):
    path = tmp_path / "a.frame"
    write_frame(path, np.arange(6.0).reshape(2, 3), time=0.0)
    header = path.read_text().splitlines()[0].split()
    assert header[:2] == ["FRAME", "v1"]
    assert header[2] == "2" and header[3:5] == ["2", "3"]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "FRAME v2 1 4 0.0\n1 2 3 4\n",
        "FRAME v1 1 4\n1 2 3 4\n",
        "FRAME v1 4 2 2 2 2 0.0\n" + " ".join(["0"] * 16) + "\n",
        "FRAME v1 1 4 0.0\n1 2 3\n",
        "FRAME v1 1 4 0.0\n1 2 3 4 5\n",
        "FRAME v1 1 4 0.0\n1 2 x 4\n",
        "FRAME v1 1 4 0.0\n1 nan 3 4\n",
        "FRAME v1 1 4 0.0\n1 2 inf 4\n",
        "FRAME v1 1 4 nan\n1 2 3 4\n",
        # not UTF-8 text: each \udcXX is written as the raw byte XX
        "\udcff\udcfe\x00",
        "FRAME v1 1 4 0.0\n1 2 \udcff 4\n",
    ],
)
def test_malformed_rejected(tmp_path, text):
    path = tmp_path / "bad.frame"
    path.write_text(text, errors="surrogateescape")
    with pytest.raises(DomainError):
        read_frame(path)
