"""Dense least-squares kernels used by the alternating updates.

Three solvers: plain minimum-norm least squares; its row-stacked variant
for the W1 update's coupled objective, with a positive weight and one
right-hand-side column per output; and nonnegative least squares. All
operate on dense float matrices at desk scale. A least-squares system that
is large by rows or by right-hand sides is solved from the r x r Gram
matrix of its smaller side when that matrix is well conditioned; every
other system, and every one that fails the conditioning gate, is solved
by SVD (LAPACK gelsd), which truncates small singular values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LsqResult",
    "NnlsResult",
    "lstsq",
    "stacked_lstsq",
    "nnls",
    "RANK_RCOND",
    "NORMAL_KAPPA_MAX",
    "KKT_RTOL",
]

# singular values below RANK_RCOND * s_max are treated as zero
RANK_RCOND = 1e-10

# Largest kappa(A) a system may have and still be solved from its normal
# equations: those square kappa, so at this bound they keep about eight of
# the sixteen digits. A system above it (a duplicated column, or coincident
# knots leaving a basis function with no samples) is solved by SVD instead.
NORMAL_KAPPA_MAX = 1e4

# A system with at least this many rows, or right-hand-side columns, takes
# the Gram route; a smaller one keeps the SVD's bits. Timed against the SVD
# with one BLAS thread on a 2-core x86-64 host, 3 columns: at 1024 rows the
# route costs 0.66-0.73 of it and a system that fails the gate (the Gram
# and its eigh, then the SVD) 1.52-1.55; at 1024 right-hand sides 0.15-0.30
# and 1.11-1.21. At 200-400 rows or 100 right-hand sides, the sizes of an
# S = 100 fit, the route costs 0.7-1.14 of the SVD: no clear gain.
_GRAM_MIN_SIZE = 1024

# KKT slack for nnls, relative to max column norm of A times ||b||
KKT_RTOL = 1e-8


@dataclass(frozen=True)
class LsqResult:
    solution: np.ndarray
    rank: int
    rank_deficient: bool


@dataclass(frozen=True)
class NnlsResult:
    solution: np.ndarray
    iterations: int
    cap_exceeded: bool


def lstsq(lhs: np.ndarray, rhs: np.ndarray) -> LsqResult:
    """Minimum-norm solution of min ||lhs @ x - rhs||_F.

    A system with at least _GRAM_MIN_SIZE rows or right-hand-side columns
    is solved from the Gram matrix of the smaller side of lhs when that
    Gram puts kappa(lhs) at or below NORMAL_KAPPA_MAX: x = (lhs^T lhs)^-1
    lhs^T rhs for a tall lhs, and the minimum-norm x = lhs^T (lhs lhs^T)^-1
    rhs for a wide one. Such a system has full rank min(lhs.shape).

    Every other system is solved by SVD (LAPACK gelsd), which truncates
    singular values below RANK_RCOND relative to the largest and so picks
    the minimum-norm solution of a rank-deficient system instead of failing.
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if lhs.ndim != 2:
        raise ValueError("lhs must be a matrix.")
    if rhs.shape[0] != lhs.shape[0]:
        raise ValueError(
            f"row mismatch: lhs has {lhs.shape[0]} rows, rhs has {rhs.shape[0]}."
        )
    rows, cols = lhs.shape
    if _gram_sized(rows, cols, rhs):
        tall = rows >= cols
        # a Gram that overflows fails the gate and goes to the SVD, so the
        # overflow is expected and not reported
        with np.errstate(over="ignore", invalid="ignore"):
            inverse = _gram_inverse(lhs.T @ lhs if tall else lhs @ lhs.T)
            if inverse is not None:
                x = inverse @ (lhs.T @ rhs) if tall else (lhs.T @ inverse) @ rhs
                return LsqResult(solution=x, rank=min(rows, cols), rank_deficient=not tall)
    return _svd_lstsq(lhs, rhs)


def stacked_lstsq(lhs1, rhs1, lhs2, rhs2, lam: float) -> LsqResult:
    """Solve min ||lhs1 @ X - rhs1||^2 + lam * ||lhs2 @ X - rhs2||^2 for finite lam > 0.

    Both right-hand sides have one column per solution column. This is
    lstsq on the row stack [lhs1; sqrt(lam) lhs2] ~ [rhs1; sqrt(lam) rhs2].
    A tall stack of at least _GRAM_MIN_SIZE rows or right-hand-side columns
    is solved from lhs1^T lhs1 + lam lhs2^T lhs2 and lhs1^T rhs1 + lam
    lhs2^T rhs2 without forming the stack, under lstsq's conditioning gate;
    every other system by SVD on the stack.
    """
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}.")
    lhs1 = np.asarray(lhs1, dtype=float)
    lhs2 = np.asarray(lhs2, dtype=float)
    rhs1 = np.asarray(rhs1, dtype=float)
    rhs2 = np.asarray(rhs2, dtype=float)
    if lhs1.shape[1] != lhs2.shape[1]:
        raise ValueError(
            f"column mismatch: {lhs1.shape[1]} vs {lhs2.shape[1]}."
        )
    for lhs, rhs in ((lhs1, rhs1), (lhs2, rhs2)):
        if rhs.shape[0] != lhs.shape[0]:
            raise ValueError(
                f"row mismatch: lhs block has {lhs.shape[0]} rows, rhs block has {rhs.shape[0]}."
            )
    rows, cols = lhs1.shape[0] + lhs2.shape[0], lhs1.shape[1]
    if rows >= cols and _gram_sized(rows, cols, rhs1):
        with np.errstate(over="ignore", invalid="ignore"):
            inverse = _gram_inverse(lhs1.T @ lhs1 + lam * (lhs2.T @ lhs2))
            if inverse is not None:
                x = inverse @ (lhs1.T @ rhs1 + lam * (lhs2.T @ rhs2))
                return LsqResult(solution=x, rank=cols, rank_deficient=False)
    root = np.sqrt(lam)
    return _svd_lstsq(
        np.concatenate([lhs1, root * lhs2]), np.concatenate([rhs1, root * rhs2])
    )


def _gram_sized(rows: int, cols: int, rhs: np.ndarray) -> bool:
    """Whether a rows x cols system with right-hand side rhs takes the Gram route."""
    width = rhs.shape[1] if rhs.ndim == 2 else 1
    return min(rows, cols) > 0 and max(rows, width) >= _GRAM_MIN_SIZE


def _gram_inverse(gram: np.ndarray):
    """Inverse of the Gram matrix of a system's lhs A, from one eigh, if its
    eigenvalues put kappa(A) at or below NORMAL_KAPPA_MAX, that is
    lambda_min > lambda_max / NORMAL_KAPPA_MAX**2; None otherwise."""
    # eigh rejects a non-finite matrix; the SVD then meets the non-finite
    # lhs as it always has
    if not np.isfinite(gram).all():
        return None
    eig, vec = np.linalg.eigh(gram)
    if not eig[0] > eig[-1] / NORMAL_KAPPA_MAX**2:
        return None
    return (vec / eig) @ vec.T


def _svd_lstsq(lhs: np.ndarray, rhs: np.ndarray) -> LsqResult:
    x, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=RANK_RCOND)
    return LsqResult(solution=x, rank=int(rank), rank_deficient=int(rank) < lhs.shape[1])


def nnls(
    lhs: np.ndarray, rhs: np.ndarray, max_iter: int | None = None, x0=None
) -> NnlsResult:
    """Nonnegative least squares min ||lhs @ x - rhs|| s.t. x >= 0.

    Active-set method (Lawson-Hanson). Starting from x = 0 with every
    coordinate active, repeatedly move the coordinate with the largest
    positive gradient component into the free set, re-solve the
    unconstrained subproblem on the free set, and walk back along the
    segment to the previous iterate whenever the subproblem solution leaves
    the feasible cone.

    With x0 (nonnegative, one entry per column of lhs) the method starts
    from x = x0 with the free set x0 > 0 instead, and first re-solves on
    that set. An all-zero x0 is a cold start. Every return that passes the
    KKT test after a solve is the solve lstsq(lhs[:, free], rhs) on its
    final free set, so a warm start that ends on the cold run's free set
    returns the cold run's bits, after fewer solves when x0 is close.

    Terminates when every active coordinate has gradient component above
    -KKT_RTOL * scale, where scale = max column norm of lhs times ||rhs||.
    If the iteration cap (default 30 * ncols; each free-set solve counts
    one) is hit, the best feasible iterate seen so far, x = 0 and x0
    included, is returned with cap_exceeded set.
    """
    a = np.asarray(lhs, dtype=float)
    b = np.asarray(rhs, dtype=float).ravel()
    if a.ndim != 2:
        raise ValueError("lhs must be a matrix.")
    p, q = a.shape
    if b.size != p:
        raise ValueError(f"row mismatch: lhs has {p} rows, rhs has {b.size}.")
    for name, arr in (("lhs", a), ("rhs", b)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite values encountered in {name}.")
    if max_iter is None:
        max_iter = 30 * q
    col_norms = np.linalg.norm(a, axis=0)
    scale = float(col_norms.max(initial=0.0) * np.linalg.norm(b))
    tol = KKT_RTOL * scale

    x = np.zeros(q) if x0 is None else np.array(x0, dtype=float).ravel()
    if x.size != q:
        raise ValueError(f"x0 has {x.size} entries, lhs has {q} columns.")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite values encountered in x0.")
    if np.any(x < 0):
        raise ValueError("x0 must be nonnegative.")
    free = x > 0
    best_x = np.zeros(q)
    best_res = float(np.linalg.norm(b))
    # a warm start re-solves on its own free set before growing it
    grow = not free.any()
    if not grow:
        res = float(np.linalg.norm(b - a @ x))
        if res < best_res:
            best_res = res
            best_x = x.copy()
    iters = 0

    while True:
        if grow:
            grad = a.T @ (b - a @ x)
            candidates = np.flatnonzero(~free & (grad > tol))
            if candidates.size == 0:
                return NnlsResult(solution=x, iterations=iters, cap_exceeded=False)
            free[candidates[np.argmax(grad[candidates])]] = True
        grow = True

        while True:
            iters += 1
            if iters > max_iter:
                return NnlsResult(solution=best_x, iterations=iters - 1, cap_exceeded=True)
            z = np.zeros(q)
            z[free] = np.linalg.lstsq(a[:, free], b, rcond=None)[0]
            if np.all(z[free] > 0):
                x = z
                break
            # walk back until the first free coordinate hits zero
            blocking = np.flatnonzero(free & (z <= 0))
            diff = x[blocking] - z[blocking]
            ratios = np.where(diff > 0, x[blocking] / np.where(diff > 0, diff, 1.0), 0.0)
            alpha = float(ratios.min())
            x = x + alpha * (z - x)
            x[blocking[ratios <= alpha]] = 0.0
            x[x < 0] = 0.0
            # coordinates driven to the boundary leave the free set
            free &= x > 0
        res = float(np.linalg.norm(b - a @ x))
        if res < best_res:
            best_res = res
            best_x = x.copy()
