"""Correctness checks on the program's outputs, one per workload.

Each check returns None when the output is correct and a one-line reason
when it is not. They use only numpy, never the package under test, so a
defect in curlow cannot also hide itself from the check.
"""
from __future__ import annotations

import numpy as np

# AC1: exact-low-rank recovery at the formula budgets
LOWRANK_TOL = 1e-6
# rank-r recovery of a file matrix may exceed the Eckart-Young error by 1%
EY_SLACK = 1.01
# AC7's sweep bound, from d = 16. AC7 applies it from d = 8 on its one seed,
# but the synthetic factors are orthonormalized sign matrices whose top-2
# rows point in one of two directions, so d = 8 sampled rows (or columns)
# are rank 1 with probability 2^-7 each and no method can recover exactly;
# at d = 16 that probability is 2^-15.
SWEEP_TOL = 1e-8
SWEEP_MIN_D = 16
# AC4 gates, applied to each group of a verify pass
MIN_PREMISE_SHARE = 0.5
MIN_HOLDS_RATE = 0.9


def rel_frobenius(M: np.ndarray, M_hat: np.ndarray) -> float:
    return float(np.linalg.norm(M - M_hat) / np.linalg.norm(M))


def eckart_young_rel(sigma: np.ndarray, r: int) -> float:
    """Relative Frobenius error of the best rank-r approximation."""
    sq = np.sort(np.asarray(sigma, dtype=np.float64))[::-1] ** 2
    return float(np.sqrt(sq[r:].sum() / sq.sum()))


def check_lowrank(M: np.ndarray, M_hat: np.ndarray) -> str | None:
    if M_hat.shape != M.shape:
        return f"recovered shape {M_hat.shape}, expected {M.shape}"
    err = rel_frobenius(M, M_hat)
    if not err <= LOWRANK_TOL:
        return f"rel_frobenius {err:.3e} above {LOWRANK_TOL:.0e}"
    return None


def check_file(M: np.ndarray, M_hat: np.ndarray, sigma: np.ndarray,
               r: int) -> str | None:
    if M_hat.shape != M.shape:
        return f"recovered shape {M_hat.shape}, expected {M.shape}"
    err = rel_frobenius(M, M_hat)
    best = eckart_young_rel(sigma, r)
    if not err <= EY_SLACK * best:
        return (f"rel_frobenius {err:.6e} above {EY_SLACK} x rank-{r} "
                f"Eckart-Young error {best:.6e}")
    return None


def check_verify_group(aggregate: dict, names: tuple[str, ...],
                       trials: int) -> str | None:
    for name in names:
        slot = aggregate.get(name)
        if slot is None:
            return f"{name}: missing from the aggregate"
        met, rate = slot["premises_met"], slot["holds_rate"]
        if met < MIN_PREMISE_SHARE * trials:
            return f"{name}: premises met in {met} of {trials} trials"
        if rate is None or not rate >= MIN_HOLDS_RATE:
            return f"{name}: holds_rate {rate} below {MIN_HOLDS_RATE}"
    return None


def check_sweep(rows: list[dict], grid: list[int]) -> str | None:
    if [row.get("d") for row in rows] != sorted(grid):
        return f"rows for d={[row.get('d') for row in rows]}, expected {sorted(grid)}"
    for row in rows:
        err = row.get("rel_error")
        if row.get("skipped") or err is None:
            return f"d={row['d']}: no result ({row.get('skipped')})"
        if row["d"] >= SWEEP_MIN_D and not err <= SWEEP_TOL:
            return f"d={row['d']}: rel_error {err:.3e} above {SWEEP_TOL:.0e}"
    return None


def read_dense_mtx(path) -> np.ndarray:
    """Read a MatrixMarket dense array (column-major values)."""
    with open(path, encoding="ascii") as fh:
        banner = fh.readline()
        if not banner.startswith("%%MatrixMarket matrix array real general"):
            raise ValueError(f"{path}: not a dense MatrixMarket array")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        n, m = (int(tok) for tok in line.split())
        values = np.loadtxt(fh, dtype=np.float64, ndmin=1)
    if values.size != n * m:
        raise ValueError(f"{path}: {values.size} values for a {n}x{m} matrix")
    return values.reshape(m, n).T


def read_spectrum(path) -> np.ndarray:
    """Read the one-column CSV that `curlow gen` writes as spectrum.csv."""
    return np.loadtxt(path, comments="#", ndmin=1)
