"""FRAME file format.

A frame is a text file with a single header line

    FRAME v1 <d> <dim1> [<dim2> [<dim3>]] <time>

followed by N whitespace-separated decimal values in row-major order,
where N is the product of the dims.  All frame emitters and the comparison
tool share this format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass
class Frame:
    dims: tuple[int, ...]
    time: float
    values: np.ndarray  # shaped like dims


def write_frame(path, values: np.ndarray, time: float) -> None:
    values = np.asarray(values, dtype=float)
    dims = values.shape
    header = "FRAME v1 {} {} {:.17g}".format(
        len(dims), " ".join(str(n) for n in dims), time
    )
    with open(path, "w") as fh:
        fh.write(header + "\n")
        flat = values.ravel()
        for start in range(0, flat.size, 8):
            fh.write(" ".join("%.17g" % x for x in flat[start : start + 8]) + "\n")


def read_frame(path) -> Frame:
    try:
        fh = open(path)
    except OSError as exc:
        raise DomainError(f"{path}: cannot read FRAME file ({exc.strerror})") from exc
    with fh:
        header = fh.readline().split()
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
        body = fh.read().split()
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
