"""Max-min fairness tests: exact cases + properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel.flows import max_min_fair_rates


class TestExactCases:
    def test_single_bottleneck_equal_share(self):
        rates = max_min_fair_rates(
            {"link": 12.0}, {"a": ["link"], "b": ["link"], "c": ["link"]})
        assert all(r == pytest.approx(4.0) for r in rates.values())

    def test_classic_three_flow_example(self):
        """Two links; one flow crosses both: textbook max-min result."""
        rates = max_min_fair_rates(
            {"l1": 10.0, "l2": 10.0},
            {"long": ["l1", "l2"], "a": ["l1"], "b": ["l2"]})
        assert rates["long"] == pytest.approx(5.0)
        assert rates["a"] == pytest.approx(5.0)
        assert rates["b"] == pytest.approx(5.0)

    def test_unequal_links(self):
        rates = max_min_fair_rates(
            {"l1": 2.0, "l2": 10.0},
            {"long": ["l1", "l2"], "b": ["l2"]})
        # long is capped by l1 alone (b does not cross it); b takes the rest
        assert rates["long"] == pytest.approx(2.0)
        assert rates["b"] == pytest.approx(8.0)

    def test_demand_bounded(self):
        rates = max_min_fair_rates(
            {"link": 10.0}, {"small": ["link"], "big": ["link"]},
            {"small": 1.0})
        assert rates["small"] == pytest.approx(1.0)
        assert rates["big"] == pytest.approx(9.0)

    def test_all_demands_satisfiable(self):
        rates = max_min_fair_rates(
            {"link": 100.0}, {"a": ["link"], "b": ["link"]},
            {"a": 3.0, "b": 4.0})
        assert rates["a"] == pytest.approx(3.0)
        assert rates["b"] == pytest.approx(4.0)

    def test_no_flows(self):
        assert max_min_fair_rates({"l": 1.0}, {}) == {}


@st.composite
def networks(draw):
    n_res = draw(st.integers(1, 4))
    caps = {f"r{i}": draw(st.floats(1.0, 100.0)) for i in range(n_res)}
    n_flows = draw(st.integers(1, 6))
    flows = {}
    demands = {}
    for i in range(n_flows):
        k = draw(st.integers(1, n_res))
        flows[f"f{i}"] = draw(st.permutations(sorted(caps)))[:k]
        if draw(st.booleans()):
            demands[f"f{i}"] = draw(st.floats(0.1, 50.0))
    return caps, flows, demands


@settings(max_examples=100, deadline=None)
@given(networks())
def test_max_min_properties(net):
    """Feasibility, demand respect, and non-starvation hold always."""
    caps, flows, demands = net
    rates = max_min_fair_rates(caps, flows, demands)
    # feasibility: no resource over-committed
    for r, c in caps.items():
        used = sum(rates[f] for f, rs in flows.items() if r in rs)
        assert used <= c * (1 + 1e-6)
    # demands respected
    for f, d in demands.items():
        assert rates[f] <= d * (1 + 1e-6)
    # non-starvation: every flow gets something
    for f in flows:
        assert rates[f] > 0
    # Pareto efficiency for unbounded flows: each either hits a saturated
    # resource or its demand.
    for f, rs in flows.items():
        at_demand = f in demands and rates[f] >= demands[f] * (1 - 1e-6)
        saturated = any(
            sum(rates[g] for g, gs in flows.items() if r in gs)
            >= caps[r] * (1 - 1e-6)
            for r in rs)
        assert at_demand or saturated
