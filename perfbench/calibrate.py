"""A fixed reference job that measures how fast the machine is right now.

    python3 perfbench/calibrate.py

It starts an interpreter, imports numpy, formats, parses and validates
rows of floats and sorts a small array: the same kinds of work as a CLI
job, with none of the library's code. It must never import intradayvol, so
no change to the library can move it, and it must not change, since every
normalized time in the benchmark is in units of it.
"""
import csv
import io
from dataclasses import dataclass

import numpy as np

ROWS = 20000


@dataclass(frozen=True)
class Row:
    a: float
    b: float
    c: float
    d: float
    e: float

    def __post_init__(self):
        if not self.a >= 0:
            raise ValueError(f"negative first field {self.a}")


def main() -> None:
    values = np.random.default_rng(12345).random((ROWS, 5))
    text = "\n".join(",".join(format(x, ".17g") for x in row) for row in values.tolist())
    rows = {i: Row(*map(float, r)) for i, r in enumerate(csv.reader(io.StringIO(text)))}
    table = np.array([[r.a, r.b, r.c, r.d, r.e] for r in rows.values()])
    for _ in range(20):
        np.sort(table, axis=0)
        np.median(table, axis=0)


if __name__ == "__main__":
    main()
