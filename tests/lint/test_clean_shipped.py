"""Every shipped kernel and example must lint clean (the CLI gate)."""

import inspect

import pytest

from repro.arch.device import GrayskullDevice
from repro.cli import main
from repro.core.grid import LaplaceProblem
from repro.core.stencil import StencilSpec
from repro.lint import all_rules, extract_trace
from repro.lint.trace import Const, iter_calls
from repro.ttmetal import create_buffer


class TestCliSweep:
    def test_shipped_kernels_and_examples_are_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "OK: no findings" in out

    def test_list_rules_covers_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.rule_id in out


class TestTraceability:
    def test_every_shipped_kernel_traces(self):
        """The extractor handles every kernel generator we ship."""
        from repro.core import jacobi_initial, jacobi_sram, multicore, stencil
        from repro.streaming import kernels as streaming_kernels
        modules = [jacobi_initial, jacobi_sram, multicore, stencil,
                   streaming_kernels]
        kernels = [(f"{module.__name__}.{name}", fn)
                   for module in modules
                   for name, fn in vars(module).items()
                   if inspect.isfunction(fn)
                   and inspect.isgeneratorfunction(fn)
                   and fn.__module__ == module.__name__
                   and "kernel" in name]
        # the stencil family's generated kernels, with and without RHS
        for rhs in (False, True):
            generated = stencil._kernels(StencilSpec.jacobi(), rhs)
            kernels += [(f"stencil.{fn.__name__}[rhs={rhs}]", fn)
                        for fn in (generated.reader, generated.compute)]
        for label, fn in kernels:
            trace = extract_trace(fn)
            assert not trace.unavailable, label
            assert not trace.truncated, label
            assert trace.nodes, f"{label} traced empty"
        assert len(kernels) >= 10, f"only found {len(kernels)} kernels"


def _stencil_program(case: str):
    """The Jacobi launch, or a generic spec with or without an RHS."""
    from repro.core.jacobi_optimized import OptimizedJacobiRunner
    from repro.core.stencil import StencilRunner
    p = LaplaceProblem(nx=64, ny=16)
    dev = GrayskullDevice(dram_bank_capacity=1 << 20)
    specs = {"advection": StencilSpec.advection_upwind(0.3, 0.2),
             "nine_point": StencilSpec.nine_point()}
    name, _, rhs = case.partition("+")
    runner = OptimizedJacobiRunner(dev, p) if name == "jacobi" \
        else StencilRunner(dev, p, specs[name])
    bufs = [create_buffer(dev, runner.layout.nbytes, interleaved=True,
                          page_size=runner.page_size)
            for _ in range(3 if rhs else 2)]
    return runner.build_program(2, *bufs)


class TestLintPrecision:
    @pytest.mark.parametrize("case", ["jacobi", "advection", "advection+rhs",
                                      "nine_point", "nine_point+rhs"])
    def test_every_cb_operand_is_a_constant(self, case):
        """The generated kernels give the tracer concrete CB ids: every
        ``ctx.cb_*`` call of every kernel the launch binds is resolved, so
        the CB-pairing and happens-before rules check the real protocol."""
        program = _stencil_program(case)
        fns = list(dict.fromkeys(spec.fn for spec in program.kernels))
        assert len(fns) == 3
        for fn in fns:
            cb_calls = [c for c in iter_calls(extract_trace(fn).nodes)
                        if c.name.startswith("cb_")]
            assert cb_calls, fn.__name__
            for call in cb_calls:
                assert isinstance(call.operand("cb_id"), Const), (
                    f"{fn.__name__}:{call.lineno} {call.name}")
