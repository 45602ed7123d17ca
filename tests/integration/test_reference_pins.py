"""Host reference output bits, pinned across commits.

Every device answer is held to a host NumPy mirror of its op chain:
``jacobi_solve_bf16`` (Listing 2), ``stencil9_reference_bits``,
``fft_reference_bits`` and the ``StencilSpec`` references
``stencil_solve_bf16`` / ``stencil_solve_fp32``.  The device-vs-mirror
tests compare two computations of one commit; these tests pin
``sha256(output)[:16]`` of each mirror, so a rewrite of a mirror that
moves any output bit fails here even where the device moves with it.

Inputs: the shapes the ``serve_open`` post-pass fingerprints (130×130,
130×34 and 34×130 halo grids at 32 sweeps; FFT 128×128 and 32×32), and
seeded random-bit grids that carry NaNs and infinities of both signs.

The digests were computed with the mirrors as they were before they
kept their grids in float32 between packs, except the nine marked
"after the fix": two ``nan_pair`` cases and seven random-bit cases, all
of specs with three or more taps in a group.  Those were computed after the
``StencilSpec`` mirror was fixed to add its third and later taps as
``tap + sum`` (the device's ``add_tiles(tap, work)``): where two NaNs
meet there, the mirror before the fix returned the other NaN's sign.
The old mirror with only that fix applied gives the same nine digests.
``fft/random/32x32`` (marked "planes assembled") was re-pinned when the
FFT output came to be assembled plane by plane: ``re + 1j * im`` had
made the real part ``re + 0·im``, NaN wherever the imaginary part is
±inf or NaN, and +0.0 for a −0.0.
A change that moves a digest is a declared output change: it updates
the digest here and says why.

Random FFT inputs use a batch that is a multiple of 16: where two NaNs
with different payloads meet in an add or a multiply, NumPy's SIMD loops
return either payload depending on where the element falls in the loop,
and the device model inherits the same choice from its row width, so no
mirror defines those bits for other widths (see ``docs/ops.md``).
"""

import hashlib
import warnings

import numpy as np
import pytest

from repro.core.grid import LaplaceProblem
from repro.core.stencil import (
    StencilSpec,
    stencil_solve_bf16,
    stencil_solve_fp32,
)
from repro.cpu.jacobi import jacobi_solve_bf16
from repro.dtypes.bf16 import bits_to_f32, f32_to_bits
from repro.ops.fft import FftProblem, fft_reference_bits
from repro.ops.stencil9 import Stencil9Problem, stencil9_reference_bits
from tests.core.test_stencil import nan_pair_grid

#: (ny, nx) interiors of the serve post-pass halo grids
POSTPASS = ((128, 128), (128, 32), (32, 128))
SPECS = {
    "jacobi": StencilSpec.jacobi(),
    "jacobi_dst": StencilSpec.jacobi("dst"),
    "diffusion": StencilSpec.diffusion(0.2),
    "advection": StencilSpec.advection_upwind(0.3, 0.2),
    "nine_point": StencilSpec.nine_point(),
}


def _random_bits(seed, shape):
    """Every BF16 pattern is equally likely: NaNs and ±inf included."""
    return np.random.default_rng(seed).integers(0, 1 << 16, shape,
                                                dtype=np.uint16)


def _random_f32(seed, shape):
    """Every float32 pattern is equally likely."""
    return np.random.default_rng(seed).integers(
        0, 1 << 32, shape, dtype=np.uint32).view(np.float32)


def _small_bits(seed, shape):
    """A finite BF16 field of small values (an RHS)."""
    vals = np.random.default_rng(seed).normal(scale=0.1, size=shape)
    return f32_to_bits(vals.astype(np.float32))


def _cases():
    """name -> thunk returning the mirror's output array."""
    cases = {}
    for ny, nx in POSTPASS:
        lap = LaplaceProblem(nx=nx, ny=ny)
        cases[f"jacobi/{ny}x{nx}/32"] = (
            lambda g=lap.initial_grid_bf16(): jacobi_solve_bf16(g, 32))
        cases[f"stencil9/{ny}x{nx}/32"] = (
            lambda g=Stencil9Problem(nx=nx, ny=ny, iters=32).halo_grid_bits():
            stencil9_reference_bits(g, 32))
        for name, spec in SPECS.items():
            cases[f"spec/{name}/bf16/{ny}x{nx}/32"] = (
                lambda g=lap.initial_grid_bf16(), s=spec:
                stencil_solve_bf16(g, s, 32))
            cases[f"spec/{name}/fp32/{ny}x{nx}/32"] = (
                lambda g=lap.initial_grid_f32(), s=spec:
                stencil_solve_fp32(g, s, 32))
            if spec.rounding == "pack":
                rhs = _small_bits(ny * nx, (ny, nx))
                cases[f"spec/{name}/bf16+rhs/{ny}x{nx}/32"] = (
                    lambda g=lap.initial_grid_bf16(), s=spec, r=rhs:
                    stencil_solve_bf16(g, s, 32, r))
                cases[f"spec/{name}/fp32+rhs/{ny}x{nx}/32"] = (
                    lambda g=lap.initial_grid_f32(), s=spec,
                    r=bits_to_f32(rhs): stencil_solve_fp32(g, s, 32, r))
    for n in (128, 32):
        cases[f"fft/{n}x{n}"] = (
            lambda x=FftProblem(n=n, batch=n).inputs(): fft_reference_bits(x))

    for sweeps in (1, 2, 4):
        g = _random_bits(sweeps, (34, 66))
        cases[f"jacobi/random/{sweeps}"] = (
            lambda g=g, k=sweeps: jacobi_solve_bf16(g, k))
        cases[f"stencil9/random/{sweeps}"] = (
            lambda g=g, k=sweeps: stencil9_reference_bits(g, k))
        for name, spec in SPECS.items():
            cases[f"spec/{name}/bf16/random/{sweeps}"] = (
                lambda g=g, s=spec, k=sweeps: stencil_solve_bf16(g, s, k))
            f = _random_f32(sweeps, (34, 66))
            cases[f"spec/{name}/fp32/random/{sweeps}"] = (
                lambda f=f, s=spec, k=sweeps: stencil_solve_fp32(f, s, k))
            if spec.rounding == "pack":
                r = _random_bits(100 + sweeps, (32, 64))
                cases[f"spec/{name}/bf16+rhs/random/{sweeps}"] = (
                    lambda g=g, s=spec, k=sweeps, r=r:
                    stencil_solve_bf16(g, s, k, r))
    for n in (32, 8):
        x = np.empty((n, 32), np.complex64)
        x.real, x.imag = _random_f32(n, (n, 32)), _random_f32(n + 1, (n, 32))
        cases[f"fft/random/{n}x32"] = lambda x=x: fft_reference_bits(x)

    cases["nan_pair/jacobi/bf16"] = (
        lambda: stencil_solve_bf16(nan_pair_grid("bf16"), SPECS["jacobi"],
                                   1))
    cases["nan_pair/jacobi_dst/bf16"] = (
        lambda: stencil_solve_bf16(nan_pair_grid("bf16"),
                                   SPECS["jacobi_dst"], 1))
    cases["nan_pair/jacobi/fp32"] = (
        lambda: stencil_solve_fp32(nan_pair_grid("fp32"), SPECS["jacobi"],
                                   1))
    return cases


PINS = {
    "fft/128x128": "11bdc5d90f26f87e",
    "fft/32x32": "27b33a7112c8de24",
    "fft/random/32x32": "fb8c8150d986bfe5",  # planes assembled
    "fft/random/8x32": "25d0f7d730ab7231",
    "jacobi/128x128/32": "b81d594f56202fcb",
    "jacobi/128x32/32": "8f58d95c31c18c3e",
    "jacobi/32x128/32": "507f0fb80fbe793b",
    "jacobi/random/1": "0350ae386d984ee0",
    "jacobi/random/2": "d9e03c1945d8c9f4",
    "jacobi/random/4": "5e3137a4121077d4",
    "nan_pair/jacobi/bf16": "d713602812cf6b5e",  # after the fix
    "nan_pair/jacobi/fp32": "cd31cf854f3dc003",  # after the fix
    "nan_pair/jacobi_dst/bf16": "0b7b59f81d552072",
    "spec/advection/bf16+rhs/128x128/32": "0879d8a3a45247d2",
    "spec/advection/bf16+rhs/128x32/32": "ee39ac7be0e101c5",
    "spec/advection/bf16+rhs/32x128/32": "510d0f92383dddd3",
    "spec/advection/bf16+rhs/random/1": "3e98162af6059ebe",
    "spec/advection/bf16+rhs/random/2": "7499e8cb0c0f82ba",
    "spec/advection/bf16+rhs/random/4": "d47fce292924f936",
    "spec/advection/bf16/128x128/32": "2c697787ed989f00",
    "spec/advection/bf16/128x32/32": "6ce91414cde467c6",
    "spec/advection/bf16/32x128/32": "8f1c528b7e6f4989",
    "spec/advection/bf16/random/1": "38fa3ae9a06b4be7",
    "spec/advection/bf16/random/2": "06ef62983691bd4f",
    "spec/advection/bf16/random/4": "a72948a9381feb8f",
    "spec/advection/fp32+rhs/128x128/32": "124166da6f025b98",
    "spec/advection/fp32+rhs/128x32/32": "145567c956839ca3",
    "spec/advection/fp32+rhs/32x128/32": "9ebaa7ba78d48888",
    "spec/advection/fp32/128x128/32": "cad370361b3115d5",
    "spec/advection/fp32/128x32/32": "bfb8abfb1d990533",
    "spec/advection/fp32/32x128/32": "9d686ce2fa5abc13",
    "spec/advection/fp32/random/1": "db34e19f0e9cbf49",
    "spec/advection/fp32/random/2": "351ee1e4f6d781f9",
    "spec/advection/fp32/random/4": "f39f4f3646fc67ba",
    "spec/diffusion/bf16+rhs/128x128/32": "3cda5a7b2001c84b",
    "spec/diffusion/bf16+rhs/128x32/32": "0d03d61d61cebe6d",
    "spec/diffusion/bf16+rhs/32x128/32": "991b82a35bf21eaf",
    "spec/diffusion/bf16+rhs/random/1": "675c6596e56a8cdf",
    "spec/diffusion/bf16+rhs/random/2": "1f2e8b4c3dba1189",
    "spec/diffusion/bf16+rhs/random/4": "7eee637f1a9c295d",
    "spec/diffusion/bf16/128x128/32": "132ce458492b399a",
    "spec/diffusion/bf16/128x32/32": "ce42f85adbbcc87d",
    "spec/diffusion/bf16/32x128/32": "c6b073a92bdb06e4",
    "spec/diffusion/bf16/random/1": "a5341032633a1514",
    "spec/diffusion/bf16/random/2": "00da265c8e963abc",
    "spec/diffusion/bf16/random/4": "1aaa5c15fdf9c18b",
    "spec/diffusion/fp32+rhs/128x128/32": "4aafb5beb30e35c1",
    "spec/diffusion/fp32+rhs/128x32/32": "a79a461cac29cd7d",
    "spec/diffusion/fp32+rhs/32x128/32": "d0a94c1c8f24aaa9",
    "spec/diffusion/fp32/128x128/32": "a5f995f714503f62",
    "spec/diffusion/fp32/128x32/32": "6034c0719d858cab",
    "spec/diffusion/fp32/32x128/32": "23ce33e77a99fc1c",
    "spec/diffusion/fp32/random/1": "bd18466a14ef04bd",
    "spec/diffusion/fp32/random/2": "cfb119996926b76c",
    "spec/diffusion/fp32/random/4": "6f521694a42f342a",
    "spec/jacobi/bf16+rhs/128x128/32": "5a85d3143388f705",
    "spec/jacobi/bf16+rhs/128x32/32": "cdcdda079e4009c3",
    "spec/jacobi/bf16+rhs/32x128/32": "83e68362cfac33fe",
    "spec/jacobi/bf16+rhs/random/1": "b23f9235adb30820",
    "spec/jacobi/bf16+rhs/random/2": "71bc5cce6d890669",
    "spec/jacobi/bf16+rhs/random/4": "b9d8bb1b011f57a8",  # after the fix
    "spec/jacobi/bf16/128x128/32": "b81d594f56202fcb",
    "spec/jacobi/bf16/128x32/32": "8f58d95c31c18c3e",
    "spec/jacobi/bf16/32x128/32": "507f0fb80fbe793b",
    "spec/jacobi/bf16/random/1": "0350ae386d984ee0",
    "spec/jacobi/bf16/random/2": "d9e03c1945d8c9f4",
    "spec/jacobi/bf16/random/4": "5e3137a4121077d4",
    "spec/jacobi/fp32+rhs/128x128/32": "7c559c6071f4d2b0",
    "spec/jacobi/fp32+rhs/128x32/32": "1d29380aca46341c",
    "spec/jacobi/fp32+rhs/32x128/32": "fed4ce375252256c",
    "spec/jacobi/fp32/128x128/32": "ed4c282d394d474d",
    "spec/jacobi/fp32/128x32/32": "8b8707d7065f79dc",
    "spec/jacobi/fp32/32x128/32": "a1b5ae6f3369f4a7",
    "spec/jacobi/fp32/random/1": "c88a7d211929b55c",  # after the fix
    "spec/jacobi/fp32/random/2": "35e1307526e031f0",
    "spec/jacobi/fp32/random/4": "b532906989d1b14b",  # after the fix
    "spec/jacobi_dst/bf16/128x128/32": "1e1408b5bb0b6e1d",
    "spec/jacobi_dst/bf16/128x32/32": "85e338d33f19773a",
    "spec/jacobi_dst/bf16/32x128/32": "bb8eaac2f8f60694",
    "spec/jacobi_dst/bf16/random/1": "c86217daee6e5206",
    "spec/jacobi_dst/bf16/random/2": "d07f2a7c27790d5a",
    "spec/jacobi_dst/bf16/random/4": "2248c048cb3db691",
    "spec/jacobi_dst/fp32/128x128/32": "ed4c282d394d474d",
    "spec/jacobi_dst/fp32/128x32/32": "8b8707d7065f79dc",
    "spec/jacobi_dst/fp32/32x128/32": "a1b5ae6f3369f4a7",
    "spec/jacobi_dst/fp32/random/1": "6a1cfe53018bac94",
    "spec/jacobi_dst/fp32/random/2": "35e1307526e031f0",
    "spec/jacobi_dst/fp32/random/4": "23948ed345c4a469",
    "spec/nine_point/bf16+rhs/128x128/32": "15afa614598d884b",
    "spec/nine_point/bf16+rhs/128x32/32": "a12d3f2af1af3b4a",
    "spec/nine_point/bf16+rhs/32x128/32": "644cacf34619d781",
    "spec/nine_point/bf16+rhs/random/1": "1c5d594428a1ed10",
    "spec/nine_point/bf16+rhs/random/2": "cfee21923f20d6b8",
    "spec/nine_point/bf16+rhs/random/4": "eeca62de8ebcc29d",  # after the fix
    "spec/nine_point/bf16/128x128/32": "47dae79a8f9781db",
    "spec/nine_point/bf16/128x32/32": "1d11f10c17d68441",
    "spec/nine_point/bf16/32x128/32": "c83b2ece1cd3a434",
    "spec/nine_point/bf16/random/1": "f46831714c6d1b9d",
    "spec/nine_point/bf16/random/2": "96892bf867cafa49",
    "spec/nine_point/bf16/random/4": "addeba8b7ca2e400",
    "spec/nine_point/fp32+rhs/128x128/32": "5d77ba00ce896aba",
    "spec/nine_point/fp32+rhs/128x32/32": "3d00442e54769602",
    "spec/nine_point/fp32+rhs/32x128/32": "9b3679d1c28473b5",
    "spec/nine_point/fp32/128x128/32": "e976aafd079f05b2",
    "spec/nine_point/fp32/128x32/32": "0701c88d852fd6cc",
    "spec/nine_point/fp32/32x128/32": "5996f2f5664d9c03",
    "spec/nine_point/fp32/random/1": "a7685faa10dd9195",  # after the fix
    "spec/nine_point/fp32/random/2": "67bdeb1d4b07cb3f",  # after the fix
    "spec/nine_point/fp32/random/4": "a258099b21c5eda9",  # after the fix
    "stencil9/128x128/32": "10bdeba1ca68b0c2",
    "stencil9/128x32/32": "6b0fa3287e571492",
    "stencil9/32x128/32": "b6801c2bfaa20a60",
    "stencil9/random/1": "f46831714c6d1b9d",
    "stencil9/random/2": "96892bf867cafa49",
    "stencil9/random/4": "addeba8b7ca2e400",
}


def digest(out: np.ndarray) -> str:
    out = np.ascontiguousarray(out)
    head = f"{out.dtype.str}{out.shape}".encode()
    return hashlib.sha256(head + out.tobytes()).hexdigest()[:16]


CASES = _cases()


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_bits_are_pinned(name):
    # IEEE overflow and invalid results are the device's semantics: a
    # mirror must not warn about them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = CASES[name]()
    assert digest(out) == PINS[name]
