"""Registry surface of the repro.ops library."""

import numpy as np
import pytest

from repro import ops
from repro.ops import OpSpec, get_op, list_ops, sha16


class TestRegistry:
    def test_three_ops_register_on_import(self):
        assert sorted(ops.OPS) == ["fft", "matmul", "stencil9"]

    def test_list_ops_is_sorted_by_name(self):
        names = [s.name for s in list_ops()]
        assert names == sorted(names)

    def test_get_op_returns_the_spec(self):
        spec = get_op("matmul")
        assert isinstance(spec, OpSpec)
        assert spec.name == "matmul"
        assert "matmul" in spec.summary.lower() or "bf16" in \
            spec.summary.lower()

    def test_get_op_unknown_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="unknown op"):
            get_op("conv2d")

    def test_every_spec_is_fully_populated(self):
        for spec in list_ops():
            assert callable(spec.make_problem)
            assert callable(spec.run)
            assert callable(spec.reference)
            assert callable(spec.estimate)
            assert callable(spec.serve_problem)
            assert callable(spec.pcie_bytes)
            assert callable(spec.snap_nx)
            assert spec.summary

    def test_make_problem_uniform_surface(self):
        # every op accepts (size, seed) with size=64 valid for all three
        for spec in list_ops():
            p = spec.make_problem(64, 3)
            assert p.seed == 3
            assert p.flops() > 0

    def test_reference_is_what_run_reads_back(self):
        for spec in list_ops():
            p = spec.make_problem(32, 1)
            res = spec.run(p)
            assert res.checked
            assert np.array_equal(res.output, spec.reference(p)), spec.name

    def test_register_is_idempotent_per_name(self):
        spec = get_op("fft")
        before = dict(ops.OPS)
        ops.register(spec)
        assert ops.OPS == before


class TestSha16:
    def test_sha16_is_16_hex_chars(self):
        s = sha16(np.arange(8, dtype=np.uint16))
        assert len(s) == 16
        int(s, 16)

    def test_sha16_depends_on_bytes(self):
        a = np.arange(8, dtype=np.uint16)
        b = a.copy()
        b[0] ^= 1
        assert sha16(a) == sha16(a.copy())
        assert sha16(a) != sha16(b)

    def test_sha16_handles_noncontiguous(self):
        a = np.arange(64, dtype=np.uint16).reshape(8, 8)
        assert sha16(a[:, ::2]) == sha16(np.ascontiguousarray(a[:, ::2]))
