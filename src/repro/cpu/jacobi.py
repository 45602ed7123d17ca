"""Reference Jacobi solvers (Listing 1 of the paper) and oracles.

Three functional implementations:

* :func:`jacobi_step_f32` / :func:`jacobi_solve_f32` — the CPU baseline
  the paper compares against (FP32, vectorised; the Jacobi update reads
  only the previous iterate, so vectorised and scalar execution are
  bit-identical).
* :func:`jacobi_step_bf16` / :func:`jacobi_solve_bf16` — the bit-exact
  model of the Grayskull compute kernel: the operation order and rounding
  points mirror Listing 2 exactly — ``(x−1 + x+1)`` packed to BF16, then
  ``+ y−1`` packed, then ``+ y+1`` packed, then ``× 0.25`` packed.  The
  simulated device must reproduce this bit-for-bit.
* :func:`solve_direct` — the exact solution of the discrete 5-point
  Laplace system via a sparse direct solve (SciPy), used as the
  convergence oracle in tests and examples.

All grids are "halo" grids of shape ``(ny+2, nx+2)``: row/column 0 and −1
hold the Dirichlet boundary values and are never written.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.bf16 import bf16_round_inplace, bits_to_f32, f32_to_bits

__all__ = [
    "jacobi_step_f32",
    "jacobi_solve_f32",
    "jacobi_step_bf16",
    "jacobi_solve_bf16",
    "residual_f32",
    "solve_direct",
]


def _check_halo(grid: np.ndarray) -> None:
    if grid.ndim != 2 or grid.shape[0] < 3 or grid.shape[1] < 3:
        raise ValueError(
            f"expected a halo grid of at least (3,3), got {grid.shape}")


def jacobi_step_f32(u: np.ndarray) -> np.ndarray:
    """One Jacobi sweep: unew = 0.25·(W + E + N + S) on the interior.

    Returns a new halo grid; boundaries are copied through.
    """
    _check_halo(u)
    u = np.asarray(u, dtype=np.float32)
    unew = u.copy()
    unew[1:-1, 1:-1] = np.float32(0.25) * (
        u[1:-1, :-2] + u[1:-1, 2:] + u[:-2, 1:-1] + u[2:, 1:-1])
    return unew


def jacobi_solve_f32(u0: np.ndarray, iterations: int) -> np.ndarray:
    """Run ``iterations`` sweeps from ``u0`` (the paper's Listing 1)."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    u = np.asarray(u0, dtype=np.float32).copy()
    for _ in range(iterations):
        u = jacobi_step_f32(u)
    return u


def jacobi_step_bf16(bits: np.ndarray) -> np.ndarray:
    """One sweep on BF16 bit patterns with the FPU's rounding points.

    Mirrors the compute kernel of Listing 2: each ``pack_tile`` rounds the
    float32 intermediate to BF16, so there are exactly four roundings per
    output element, in this order::

        t1 = pack(u[y, x-1] + u[y, x+1])
        t2 = pack(u[y-1, x] + t1)
        t3 = pack(u[y+1, x] + t2)
        out = pack(0.25 * t3)
    """
    return jacobi_solve_bf16(bits, 1)


def jacobi_solve_bf16(bits0: np.ndarray, iterations: int) -> np.ndarray:
    """Run ``iterations`` BF16 sweeps (the oracle for the simulated card).

    The grid is unpacked once and every sweep runs in float32, rounded in
    place where the device packs (:func:`jacobi_step_bf16`) with each
    op's operand order kept, so the interior is packed once at the end.
    The boundary bits are returned as given.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    b = np.asarray(bits0, dtype=np.uint16).copy()
    if iterations == 0:
        return b
    _check_halo(b)
    u = bits_to_f32(b)
    west, east = u[1:-1, :-2], u[1:-1, 2:]
    north, south = u[:-2, 1:-1], u[2:, 1:-1]
    quarter = np.float32(0.25)
    t = np.empty_like(west)
    # overflow to ±inf and inf−inf → NaN are the hardware's IEEE
    # semantics, not errors
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iterations):
            bf16_round_inplace(np.add(west, east, out=t))
            # Listing 2: add_tiles(cb_in2, intermediate)
            bf16_round_inplace(np.add(north, t, out=t))
            bf16_round_inplace(np.add(south, t, out=t))
            bf16_round_inplace(np.multiply(quarter, t, out=t))
            u[1:-1, 1:-1] = t
    b[1:-1, 1:-1] = f32_to_bits(t)
    return b


def residual_f32(u: np.ndarray) -> float:
    """Max |0.25·(W+E+N+S) − u| over the interior — 0 at convergence."""
    nxt = jacobi_step_f32(u)
    return float(np.abs(nxt[1:-1, 1:-1] - np.asarray(
        u, dtype=np.float32)[1:-1, 1:-1]).max())


def solve_direct(u0: np.ndarray) -> np.ndarray:
    """Exact converged solution of the discrete Laplace system.

    Builds the 5-point Laplacian over the interior unknowns with the halo
    grid's boundary values as Dirichlet data and solves it directly with
    SciPy's sparse LU.  Returns a full halo grid (float64).
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    u0 = np.asarray(u0, dtype=np.float64)
    _check_halo(u0)
    ny, nx = u0.shape[0] - 2, u0.shape[1] - 2
    n = nx * ny

    def idx(iy, ix):
        return iy * nx + ix

    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for iy in range(ny):
        for ix in range(nx):
            k = idx(iy, ix)
            rows.append(k); cols.append(k); vals.append(4.0)
            for dy, dx in ((0, -1), (0, 1), (-1, 0), (1, 0)):
                jy, jx = iy + dy, ix + dx
                if 0 <= jy < ny and 0 <= jx < nx:
                    rows.append(k); cols.append(idx(jy, jx)); vals.append(-1.0)
                else:
                    rhs[k] += u0[jy + 1, jx + 1]  # boundary contribution
    a = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    x = spla.spsolve(a.tocsc(), rhs)
    out = u0.copy()
    out[1:-1, 1:-1] = x.reshape(ny, nx)
    return out
