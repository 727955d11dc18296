"""Online admission hot-path benchmark.

The holistic analysis *is* the admission controller (Sec. 3.5), so the
product metric is how fast a stream of requests drains — not how fast a
single offline analysis runs.  This benchmark feeds N pre-generated
flows one by one through a fresh :class:`AdmissionController` (the
incremental engine every server runs) and measures the whole sequence:
the route pre-check, the changed-set solve warm from the admitted
table, and the accept bookkeeping all land in the measured region.

``test_admission_sequential[64]`` is the headline number tracked in
``BENCH_scaling.json`` (see ``run_bench.py``).
"""

import pytest

from repro.core.admission import AdmissionController
from repro.util.units import mbps
from repro.workloads.generator import random_flow_set
from repro.workloads.topologies import line_network


def _workload(n_flows):
    """A line topology and N flows sized so that all are admissible."""
    net = line_network(3, hosts_per_switch=4, speed_bps=mbps(1000))
    flows = random_flow_set(
        net, n_flows=n_flows, total_utilization=0.3, seed=42
    )
    return net, flows


@pytest.mark.parametrize("n_flows", [8, 32, 64])
def test_admission_sequential(benchmark, n_flows):
    """Sequential admission of N flows through a fresh controller."""
    net, flows = _workload(n_flows)

    def run():
        ctrl = AdmissionController(net)
        accepted = sum(ctrl.request(f).accepted for f in flows)
        return ctrl, accepted

    ctrl, accepted = benchmark(run)
    # The seeded workload admits most (not necessarily all) requests,
    # and the engine-equivalence tests prove the decisions are
    # identical across engines — so the measured work is comparable
    # between trajectory entries.
    assert n_flows // 2 < accepted <= n_flows
    assert len(ctrl.admitted_flows) == accepted


@pytest.mark.parametrize("n_flows", [32])
def test_admission_churn(benchmark, n_flows):
    """Admit N flows, then release/re-admit the last one repeatedly.

    Models the steady-state of an online controller: a mostly-stable
    admitted set with churn at the margin.  Exercises the release (cone
    reset) path and the rebuild of the re-admitted flow's demand
    profiles over the shared window tables.
    """
    net, flows = _workload(n_flows)
    ctrl = AdmissionController(net)
    for f in flows:
        ctrl.request(f)
    # Churn an admitted flow: releasing it frees exactly the capacity
    # needed to re-admit it, so the cycle is repeatable indefinitely.
    churner = ctrl.admitted_flows[-1]

    def run():
        ctrl.release(churner.name)
        return ctrl.request(churner)

    decision = benchmark(run)
    assert decision.accepted
