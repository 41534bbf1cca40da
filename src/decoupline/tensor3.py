"""Dense third-order tensors: unfoldings, Khatri-Rao products, CPD assembly.

A tensor of dimensions n x m x S is stored as a numpy array with the
canonical flat layout: entry (i, j, k) lives at flat offset i + j*n + k*n*m,
all indices zero-based, first index fastest. That is numpy's order='F'
raveling, and every function here sticks to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor3",
    "CpdFactors",
    "unfold",
    "khatri_rao",
    "reconstruct",
    "frob_norm_sq",
    "read_tensor",
    "write_tensor",
    "read_matrix",
    "write_matrix",
]


@dataclass(frozen=True)
class Tensor3:
    """Immutable dense n x m x S tensor."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 3:
            raise ValueError(f"Tensor3 needs a 3-d array, got ndim={arr.ndim}.")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @classmethod
    def from_flat(cls, dims, values) -> "Tensor3":
        """Build from flat values laid out i-fastest (offset i + j*n + k*n*m)."""
        n, m, s = dims
        values = np.asarray(values, dtype=float).ravel()
        if values.size != n * m * s:
            raise ValueError(
                f"flat buffer has {values.size} values, dims {dims} need {n * m * s}."
            )
        return cls(values.reshape((n, m, s), order="F"))

    def flat(self) -> np.ndarray:
        """Values in canonical flat order (first index fastest)."""
        return self.data.ravel(order="F")

    def frontal_slice(self, k: int) -> np.ndarray:
        """The n x m matrix at third index k."""
        return self.data[:, :, k]


@dataclass(frozen=True)
class CpdFactors:
    """Factor matrices (A, B, C) of a rank-r CPD, one column per component.

    Frontal slice k of the represented tensor is A @ diag(C[k, :]) @ B.T.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.B, dtype=float)
        c = np.asarray(self.C, dtype=float)
        for name, mat in (("A", a), ("B", b), ("C", c)):
            if mat.ndim != 2:
                raise ValueError(f"factor {name} must be 2-d, got ndim={mat.ndim}.")
        if not (a.shape[1] == b.shape[1] == c.shape[1]):
            raise ValueError(
                "factors disagree on rank: "
                f"{a.shape[1]}, {b.shape[1]}, {c.shape[1]} columns."
            )
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)

    @property
    def rank(self) -> int:
        return self.A.shape[1]


def _materialize(arr: np.ndarray) -> np.ndarray:
    # unfoldings hand out fresh matrices, never views into the tensor
    return arr if arr.base is None else arr.copy()


def unfold(t: Tensor3, mode: int) -> np.ndarray:
    """Matricize along one mode.

    mode 1: n x (m*S), column j + k*m holds t(:, j, k)
    mode 2: m x (n*S), column i + k*n holds t(i, :, k)
    mode 3: S x (n*m), column i + j*n holds t(i, j, :)

    With factors (A, B, C) these satisfy unfold1 = A (C kr B)^T,
    unfold2 = B (C kr A)^T, unfold3 = C (B kr A)^T.
    """
    if mode == 1:
        src = t.data
    elif mode == 2:
        src = t.data.transpose(1, 0, 2)
    elif mode == 3:
        src = t.data.transpose(2, 0, 1)
    else:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}.")
    rows = src.shape[0]
    return _materialize(src.reshape((rows, -1), order="F"))


def khatri_rao(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product.

    For p x r and q x r inputs the result is (p*q) x r with
    out[a*q + b, col] = x[a, col] * y[b, col].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("khatri_rao expects two matrices.")
    if x.shape[1] != y.shape[1]:
        raise ValueError(
            f"column counts differ: {x.shape[1]} vs {y.shape[1]}."
        )
    p, r = x.shape
    q = y.shape[0]
    return (x[:, None, :] * y[None, :, :]).reshape(p * q, r)


def reconstruct(factors: CpdFactors) -> Tensor3:
    """Assemble the full tensor from CPD factors."""
    return Tensor3(np.einsum("ir,jr,kr->ijk", factors.A, factors.B, factors.C))


def frob_norm_sq(t) -> float:
    """Squared Frobenius norm of a Tensor3 or ndarray."""
    arr = t.data if isinstance(t, Tensor3) else np.asarray(t, dtype=float)
    return float(np.vdot(arr, arr))


def write_tensor(t: Tensor3, path) -> None:
    """Text format: first line "n m S", then one value per line in flat order."""
    n, m, s = t.dims
    lines = [f"{n} {m} {s}"]
    lines.extend(repr(float(v)) for v in t.flat())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_tensor(path) -> Tensor3:
    with open(path) as fh:
        raw = [line.strip() for line in fh]
    raw = [line for line in raw if line]
    if not raw:
        raise ValueError(f"malformed tensor file {path}: empty.")
    head = raw[0].split()
    if len(head) != 3:
        raise ValueError(
            f"malformed tensor file {path}: header must be 'n m S', got {raw[0]!r}."
        )
    try:
        n, m, s = (int(v) for v in head)
    except ValueError as exc:
        raise ValueError(f"malformed tensor file {path}: bad header {raw[0]!r}.") from exc
    body = raw[1:]
    if len(body) != n * m * s:
        raise ValueError(
            f"malformed tensor file {path}: expected {n * m * s} values, got {len(body)}."
        )
    try:
        values = np.array([float(v) for v in body])
    except ValueError as exc:
        raise ValueError(f"malformed tensor file {path}: non-numeric value.") from exc
    return Tensor3.from_flat((n, m, s), values)


def write_matrix(mat: np.ndarray, path) -> None:
    """Comma-separated rows, round-trip exact through repr."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    with open(path, "w") as fh:
        for row in mat:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def read_matrix(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise ValueError(
                    f"malformed matrix file {path}: non-numeric entry on line {ln}."
                ) from exc
    if not rows:
        raise ValueError(f"malformed matrix file {path}: empty.")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"malformed matrix file {path}: ragged rows.")
    return np.array(rows, dtype=float)
