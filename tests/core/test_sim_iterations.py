"""One ``sim_iterations`` rule and one run ledger for every DES
Jacobi/stencil runner."""

import pytest

from repro.cli import main
from repro.core.grid import LaplaceProblem
from repro.core.jacobi_initial import InitialJacobiRunner, simulated_iterations
from repro.core.jacobi_sram import SramJacobiRunner
from repro.core.stencil import StencilRunner, StencilSpec

RUNNERS = {
    "initial": lambda dev: InitialJacobiRunner(
        dev, LaplaceProblem(nx=32, ny=32)),
    "stencil": lambda dev: StencilRunner(
        dev, LaplaceProblem(nx=32, ny=8), StencilSpec.diffusion(0.2)),
    "sram": lambda dev: SramJacobiRunner(
        dev, LaplaceProblem(nx=32, ny=8), cores_y=2),
}


@pytest.mark.parametrize("sim_iterations", [0, -1])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_non_positive_budget_is_rejected(runner, sim_iterations,
                                         device_factory):
    with pytest.raises(ValueError, match="sim_iterations must be positive"):
        RUNNERS[runner](device_factory()).run(
            4, sim_iterations=sim_iterations)


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_non_positive_iterations_are_rejected(runner, device_factory):
    with pytest.raises(ValueError, match="iterations must be positive"):
        RUNNERS[runner](device_factory()).run(0)


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_partial_run_extrapolates(runner, device_factory):
    """k of N sweeps report the k-sweep launch scaled to N, through the
    one run ledger; the SRAM slab load is charged once, not per sweep."""
    k, n = 2, 10
    full = RUNNERS[runner](device_factory()).run(k, read_back=False)
    part = RUNNERS[runner](device_factory()).run(n, sim_iterations=k)
    assert part.grid_bits is None  # no readback unless every sweep ran
    assert part.transfer_time_s == full.transfer_time_s
    if runner == "sram":
        assert part.kernel_time_s < full.kernel_time_s / k * n
        assert part.energy_j == pytest.approx(
            full.energy_j * (part.kernel_time_s / full.kernel_time_s))
    else:
        assert part.kernel_time_s == full.kernel_time_s / k * n
        assert part.energy_j == full.energy_j * (
            part.kernel_time_s / full.kernel_time_s)


def test_budget_defaults_to_all_and_caps_at_iterations():
    assert simulated_iterations(10, None) == 10
    assert simulated_iterations(10, 3) == 3
    assert simulated_iterations(10, 40) == 10


def test_cli_solve_rejects_a_negative_budget(capsys):
    code = main(["solve", "--variant", "sram", "--backend", "e150",
                 "--nx", "32", "--ny", "8", "--iterations", "4",
                 "--sim-iterations", "-1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "sim_iterations must be positive" in captured.err
    assert captured.out == ""
