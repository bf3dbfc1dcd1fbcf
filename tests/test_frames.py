"""FRAME file round trips and header validation."""

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qswarm import DomainError, read_frame, write_frame

# -0.0, the smallest subnormal, the largest double, and doubles whose
# shortest round-trip decimal has 17 significant digits
EDGES = np.array([-0.0, 5e-324, sys.float_info.max, -sys.float_info.max,
                  0.1 + 0.2, 1.0 + 2.0**-52])


@pytest.mark.parametrize("shape", [(7,), (4, 5), (3, 3, 3)])
def test_roundtrip(tmp_path, shape):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(shape)
    path = tmp_path / "a.frame"
    write_frame(path, values, time=1.25)
    fr = read_frame(path)
    assert fr.dims == shape
    assert fr.time == 1.25
    assert np.array_equal(fr.values, values)  # shortest round-trip decimals are exact


@settings(max_examples=60, deadline=None)
@given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                         elements=st.floats(allow_nan=False, allow_infinity=False)),
       time=st.floats(allow_nan=False, allow_infinity=False))
@example(values=EDGES, time=-0.0)
@example(values=EDGES.reshape(3, 2, 1), time=sys.float_info.max)
def test_roundtrip_is_bit_exact(values, time):
    """Every finite double, the sign of zero included, reads back bit for bit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.frame"
        write_frame(path, values, time)
        fr = read_frame(path)
    assert fr.dims == values.shape
    assert np.array_equal(fr.values.view(np.uint64), values.view(np.uint64))
    assert np.float64(fr.time).view(np.uint64) == np.float64(time).view(np.uint64)


def test_file_text(tmp_path):
    """The header, then each value's shortest round-trip decimal on its own line;
    a whole number is written without its ".0"."""
    path = tmp_path / "a.frame"
    write_frame(path, np.array([[0.1, -0.0, 1e22], [5e-324, 0.30000000000000004, 30.0]]), 2.5)
    assert path.read_bytes() == (
        b"FRAME v1 2 2 3 2.5\n0.1\n-0\n1e22\n5e-324\n0.30000000000000004\n30\n"
    )


def test_reads_17_digit_frames(tmp_path):
    """Files in the older ``%.17g`` notation read back equal."""
    path = tmp_path / "old.frame"
    path.write_text(f"FRAME v1 1 {EDGES.size} 0.10000000000000001\n"
                    + "".join("%.17g\n" % x for x in EDGES))
    fr = read_frame(path)
    assert fr.time == 0.1
    assert np.array_equal(fr.values.view(np.uint64), EDGES.view(np.uint64))


@pytest.mark.parametrize(
    "values, time",
    [([1.0, np.nan], 0.0), ([np.inf, 1.0], 0.0), ([[-np.inf]], 0.0), ([1.0], np.nan)],
)
def test_non_finite_rejected_before_writing(tmp_path, values, time):
    path = tmp_path / "bad.frame"
    with pytest.raises(DomainError, match="bad.frame"):
        write_frame(path, np.array(values), time)
    assert not path.exists()


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


def test_a_count_past_int64_is_a_count_mismatch(tmp_path):
    """4294967296^2 = 2**64 values: the count is exact, not wrapped to 0,
    so two values are a count mismatch, not a malformed value."""
    path = tmp_path / "huge.frame"
    path.write_text("FRAME v1 2 4294967296 4294967296 0\n1 2\n")
    with pytest.raises(DomainError, match=f"expected {2**64} values, found 2"):
        read_frame(path)
