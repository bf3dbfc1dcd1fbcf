"""FRAME file format.

A frame is a text file with a single header line

    FRAME v1 <d> <dim1> [<dim2> [<dim3>]] <time>

followed by N whitespace-separated decimal values in row-major order,
where N is the product of the dims.  All frame emitters and the comparison
tool share this format.

``write_frame`` writes each value, one a line, as its shortest decimal that
round-trips (orjson's Ryu formatter; a whole number without ".0"), so
``read_frame`` returns the written array bit for bit.  A non-finite value
or time is rejected before the file is opened.  ``read_frame`` reads any
decimal notation Python's ``float`` accepts, such as the ``%.17g`` of
older files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import orjson

from .errors import DomainError


@dataclass
class Frame:
    dims: tuple[int, ...]
    time: float
    values: np.ndarray  # shaped like dims


def write_frame(path, values: np.ndarray, time: float) -> None:
    values = np.asarray(values, dtype=float)
    if not (math.isfinite(time) and np.all(np.isfinite(values))):
        raise DomainError(f"{path}: cannot write a non-finite number to a FRAME file")
    dims = values.shape
    header = "FRAME v1 {} {} {:.17g}\n".format(
        len(dims), " ".join(str(n) for n in dims), time
    )
    with open(path, "wb") as fh:
        fh.write(header.encode())
        flat = values.ravel()
        # bounded chunks: no string of the whole frame is ever built
        for start in range(0, flat.size, 4096):
            text = orjson.dumps(flat[start : start + 4096], option=orjson.OPT_SERIALIZE_NUMPY)
            # "[0.0,2.5]" -> "0\n2.5\n": a whole number drops its ".0", as in %.17g
            fh.write((text[1:-1] + b",").replace(b".0,", b",").replace(b",", b"\n"))


def read_frame(path) -> Frame:
    try:
        with open(path) as fh:
            header = fh.readline().split()
            body = fh.read().split()
    except OSError as exc:
        raise DomainError(f"{path}: cannot read FRAME file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: FRAME file is not text ({exc.reason})") from exc
    if len(header) < 4 or header[0] != "FRAME" or header[1] != "v1":
        raise DomainError(f"{path}: not a FRAME v1 file")
    try:
        d = int(header[2])
        dims = tuple(int(x) for x in header[3 : 3 + d])
        time = float(header[3 + d])
    except (ValueError, IndexError) as exc:
        raise DomainError(f"{path}: malformed FRAME header") from exc
    if len(header) != 4 + d or not 1 <= d <= 3:
        raise DomainError(f"{path}: malformed FRAME header")
    n = int(np.prod(dims))
    if len(body) != n:
        raise DomainError(f"{path}: expected {n} values, found {len(body)}")
    try:
        values = np.array([float(x) for x in body]).reshape(dims)
    except ValueError as exc:
        raise DomainError(f"{path}: malformed FRAME value") from exc
    if not (np.isfinite(time) and np.all(np.isfinite(values))):
        raise DomainError(f"{path}: FRAME holds a non-finite number")
    return Frame(dims, time, values)
