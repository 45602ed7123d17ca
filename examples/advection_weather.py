#!/usr/bin/env python3
"""Atmospheric advection on the simulated Grayskull — the paper's next step.

The paper's future work names "more complex stencil algorithms, such as
atmospheric advection" as the target after Jacobi.  This example runs a
first-order upwind advection of a tracer plume (a pollutant cloud in a
steady wind) using the generic stencil framework: the evolution is shown
with the fast BF16 reference sweep, and a prefix is verified end-to-end
through the full simulated machine.

Usage::

    python examples/advection_weather.py
"""

import numpy as np

from repro.arch.device import GrayskullDevice
from repro.core.grid import LaplaceProblem
from repro.core.stencil import (C, N, W, StencilRunner, StencilSpec,
                                 stencil_solve_bf16)
from repro.dtypes.bf16 import bits_to_f32, f32_to_bits


def render(vals: np.ndarray, width: int = 48) -> str:
    shades = " .:-=+*#%@"
    interior = vals[1:-1, 1:-1]
    step = max(1, interior.shape[1] // width)
    hi = max(float(interior.max()), 1e-6)
    return "\n".join(
        "".join(shades[min(int(v / hi * (len(shades) - 1)),
                           len(shades) - 1)] for v in row[::step])
        for row in interior[::2 * step])


def main() -> None:
    # Wind toward +x (and slightly +y); tracer enters on a left-boundary band.
    problem = LaplaceProblem(nx=96, ny=48, left=0.0, initial=0.0)
    grid = problem.initial_grid_bf16()
    grid[10:24, 0] = f32_to_bits(np.float32(1.0))  # tracer source band

    spec = StencilSpec.advection_upwind(cu=0.5, cv=0.1)
    print(f"Upwind advection, cu=0.5 cv=0.1 (coefficients: "
          f"C={spec.weight(C):g} W={spec.weight(W):g} "
          f"N={spec.weight(N):g})\n")

    ref, last = grid.copy(), 0
    for steps in (10, 40, 90):
        ref = stencil_solve_bf16(ref, spec, steps - last)
        last = steps
        print(f"after {steps} steps:")
        print(render(bits_to_f32(ref)))
        print()

    # End-to-end verification through the simulated card.
    dev = GrayskullDevice(dram_bank_capacity=8 << 20)
    res = StencilRunner(dev, problem, spec).run(10, initial_grid=grid)
    want = stencil_solve_bf16(grid, spec, 10)
    ok = np.array_equal(res.grid_bits, want)
    print(f"device vs reference after 10 steps: "
          f"{'bit-identical' if ok else 'MISMATCH'}")
    print(f"device: {res.gpts:.4f} GPt/s, {res.energy_j * 1e3:.2f} mJ\n")

    # Cost model: every op of the spec's chain is one FPU pass, so
    # weighted stencils cost more per term and Listing 2's add-first
    # Jacobi (3 adds, 1 scale) undercuts even 3-term advection.
    print("modelled device cost per sweep (64x1024 domain, 1 core):")
    big = LaplaceProblem(nx=1024, ny=64)
    for name, s in [("advection (3 terms)", spec),
                    ("jacobi (Listing 2)", StencilSpec.jacobi()),
                    ("diffusion (5 terms)", StencilSpec.diffusion(0.2))]:
        r = StencilRunner(GrayskullDevice(dram_bank_capacity=8 << 20),
                          big, s).run(50, sim_iterations=2, read_back=False)
        print(f"  {name + ':':21}{r.kernel_time_s / 50 * 1e6:7.1f} us/sweep "
              f"({r.gpts:.3f} GPt/s)")


if __name__ == "__main__":
    main()
