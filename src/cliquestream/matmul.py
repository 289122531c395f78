"""Matrix products for the rectangular reduction.

The children-generation kernel consumes only the positivity of the product
of two 0/1 matrices, so :func:`multiply_boolean_threshold` computes it as a
float32 product through BLAS sgemm and thresholds it at zero.  Every entry
counts witnesses, at most the inner dimension, so below 2^24 (float32's
exact-integer range) the product is exact; a larger inner dimension is
refused.  Every right operand is checked and converted as a
:class:`BinaryOperand`; one used by many products is wrapped once by its
caller.  :func:`multiply` is the exact integer product as a pure-Python
triple loop, kept as the differential reference.
"""

from __future__ import annotations

import numpy as np

# float32 represents every integer up to 2^24 exactly
_FLOAT32_EXACT = 1 << 24


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got shape {m.shape}")
    if m.dtype.kind not in "biu":
        raise ValueError(f"expected integer entries, got dtype {m.dtype}")
    return m


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")


def _check_binary(m: np.ndarray, name: str) -> None:
    kind = m.dtype.kind  # bool is 0/1 by type; unsigned cannot go below 0
    if kind != "b" and (m.max() > 1 or (kind == "i" and m.min() < 0)):
        raise ValueError(f"{name} must be a 0/1 matrix")


class BinaryOperand:
    """A 0/1 matrix checked and converted to float32: every right operand of
    :func:`multiply_boolean_threshold`, made once when many calls reuse it."""

    __slots__ = ("matrix",)

    def __init__(self, m) -> None:
        bm = _as_matrix(m)
        _check_binary(bm, "right operand")
        self.matrix = np.ascontiguousarray(bm, dtype=np.float32)


def multiply(a, b) -> np.ndarray:
    """Exact integer product ``a @ b`` by the naive triple loop."""
    am = _as_matrix(a)
    bm = _as_matrix(b)
    _check_dims(am, bm)
    r, s = am.shape
    c = bm.shape[1]
    al = am.tolist()
    bl = bm.tolist()
    out = [[0] * c for _ in range(r)]
    for i in range(r):
        ai = al[i]
        oi = out[i]
        for k in range(s):
            aik = ai[k]
            if aik:
                bk = bl[k]
                for j in range(c):
                    oi[j] += aik * bk[j]
    return np.array(out, dtype=np.int64).reshape(r, c)


def multiply_boolean_threshold(a, b) -> np.ndarray:
    """Entrywise ``(a @ b) > 0`` for 0/1 matrices, as a bool array.  ``b``
    is checked and converted as a :class:`BinaryOperand` unless it is one
    already."""
    am = _as_matrix(a)
    if am.shape[1] >= _FLOAT32_EXACT:
        raise ValueError(f"inner dimension {am.shape[1]} is past float32's exact range")
    if not isinstance(b, BinaryOperand):
        b = BinaryOperand(b)
    _check_dims(am, b.matrix)
    _check_binary(am, "left operand")
    return (am.astype(np.float32) @ b.matrix) > 0
