#!/usr/bin/env python
"""Admission control for VoIP calls — the paper's operator use case.

A network operator owns an edge network (a 2-level switch tree) and
offers delay-guaranteed VoIP: every call direction must arrive within
20 ms.  Calls request admission one by one; the controller decides
each against the holistic GMF fixed point (Sec. 3.5) of the admitted
calls plus the candidate, re-solving only the calls the candidate
shares a resource with, and accepts a call only if *all* admitted flows
still meet their deadlines.

The script admits calls until the first rejection, prints the
admission trace, shows what the rejection diagnosis looks like, and
prints the admitted set's bounds from ``controller.last_analysis``.

Run:  python examples/voip_admission.py
"""

import itertools

from repro import AdmissionController
from repro.util.tables import Table
from repro.util.units import mbps, ms
from repro.workloads.topologies import tree_network
from repro.workloads.voip import voip_flow

# A small but congested edge: 2-level binary switch tree, 10 Mbit/s
# links (legacy access network -> admission bites early), 2 hosts/leaf.
net = tree_network(depth=2, fanout=2, hosts_per_leaf=2, speed_bps=mbps(10))
controller = AdmissionController(net)

# Call pairs alternate between cross-tree host pairs so calls share the
# root links.
hosts = [n.name for n in net.nodes() if n.name.startswith("h")]
left = [h for h in hosts if h.startswith("hsw0")]
right = [h for h in hosts if h.startswith("hsw1")]
pairs = list(itertools.product(left, right))

log = Table(["call", "route", "accepted", "reason / worst slack (ms)"])
admitted = 0
for i in itertools.count():
    a, b = pairs[i % len(pairs)]
    leaf_a, leaf_b = a[1:].split("_")[0], b[1:].split("_")[0]
    route = (a, leaf_a, "sw", leaf_b, b)
    call = voip_flow(
        route, name=f"call{i}", priority=7, deadline=ms(20), codec="g711"
    )
    decision = controller.request(call)
    if decision.accepted:
        admitted += 1
        slack = decision.analysis.result(call.name).worst_slack
        log.add_row([call.name, "->".join(route), True, f"{slack * 1e3:.3f}"])
    else:
        log.add_row([call.name, "->".join(route), False, decision.reason])
        break

print(log.render())
print(f"\nadmitted {admitted} unidirectional calls before the first rejection")

analysis = controller.last_analysis
print("\nfinal admitted set (worst bound per call):")
summary = Table(["flow", "worst bound (ms)", "deadline (ms)", "slack (ms)"])
for name, r in sorted(analysis.flow_results.items()):
    summary.add_row(
        [name, r.worst_response * 1e3, 20.0, r.worst_slack * 1e3]
    )
print(summary.render())

# Releasing a call frees capacity: the previously rejected call now fits.
controller.release("call0")
retry = voip_flow(
    (pairs[admitted % len(pairs)][0],
     pairs[admitted % len(pairs)][0][1:].split("_")[0],
     "sw",
     pairs[admitted % len(pairs)][1][1:].split("_")[0],
     pairs[admitted % len(pairs)][1]),
    name="retry",
    priority=7,
    deadline=ms(20),
)
decision = controller.request(retry)
print(f"\nafter releasing call0, admission of a new call: "
      f"accepted={decision.accepted}")
