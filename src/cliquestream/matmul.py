"""Matrix products for the rectangular reduction.

The children-generation kernel consumes only the positivity of the product
of two 0/1 matrices, so :func:`multiply_boolean_threshold` computes it as
one Boolean product: numpy ANDs and ORs ``bool`` operands, which is exact
at any inner dimension.  :func:`multiply` is the exact integer product as a
pure-Python triple loop, kept as the differential reference.
"""

from __future__ import annotations

import numpy as np


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got shape {m.shape}")
    if not np.issubdtype(m.dtype, np.integer) and not np.issubdtype(m.dtype, np.bool_):
        raise ValueError(f"expected integer entries, got dtype {m.dtype}")
    return m


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions disagree: {a.shape} x {b.shape}")


def _check_binary(m: np.ndarray, name: str) -> None:
    if m.min() < 0 or m.max() > 1:
        raise ValueError(f"{name} must be a 0/1 matrix")


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
    """Entrywise ``(a @ b) > 0`` for 0/1 matrices, as a bool array."""
    am = _as_matrix(a)
    bm = _as_matrix(b)
    _check_dims(am, bm)
    _check_binary(am, "left operand")
    _check_binary(bm, "right operand")
    return am.astype(bool) @ bm.astype(bool)
