"""Numeric datatypes of the Grayskull FPU.

The Grayskull's matrix/vector engine computes on **bfloat16** (BF16): 1 sign
bit, 8 exponent bits, 7 mantissa bits — the top half of an IEEE-754
float32.  NumPy has no native bfloat16, so :mod:`repro.dtypes.bf16`
implements the format in software (bit-exact round-to-nearest-even
conversion on ``uint16`` payloads), and :mod:`repro.dtypes.tiles` provides
the 32×32-element tile geometry the FPU operates on.
"""

from repro.dtypes.bf16 import (
    BF16_BYTES,
    bf16_add,
    bf16_mul,
    bf16_round,
    bf16_sub,
    bits_to_f32,
    f32_to_bits,
)
from repro.dtypes.tiles import (
    TILE_DIM,
    TILE_ELEMS,
    TILE_NBYTES,
    domain_to_tiles,
    tiles_to_domain,
)

__all__ = [
    "BF16_BYTES",
    "TILE_DIM",
    "TILE_ELEMS",
    "TILE_NBYTES",
    "bf16_add",
    "bf16_mul",
    "bf16_round",
    "bf16_sub",
    "bits_to_f32",
    "f32_to_bits",
    "domain_to_tiles",
    "tiles_to_domain",
]
