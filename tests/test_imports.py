"""What the admission server and its clients load, and the lazily
resolved packages.

``serve`` needs the engine, the protocol and the service.  The
simulator, the scenario families, the replay drivers and numpy (which
those use) stay unloaded until a command that runs them asks: the
``repro.sim``, ``repro.scenario`` and ``repro.service`` package inits
resolve their names on first access, :class:`SimConfig` lives in the
numpy-free :mod:`repro.sim.config`, and the demand windows and sums are
pure Python, however many flows share a link.  A client that only
fetches ``metrics``, ``stats`` or ``health`` (``trace-export``,
``watch --connect``) needs the wire client and the protocol alone.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules a ``serve`` session must not load.
NOT_SERVED = (
    "numpy",
    "repro.sim.simulator",
    "repro.scenario.families",
    "repro.service.replay",
    "repro.service.client",
)

SERVE_SESSION = """
import contextlib, io, json, sys

import repro.cli
from repro.scenario import load_scenario_file
from repro.service import AdmissionServer, Request, ShardedAdmissionService

scenario = load_scenario_file(sys.argv[1])
flow = scenario.flows[0]
with ShardedAdmissionService(
    scenario.network, options=scenario.options
) as service:
    admit, query, release = service.process_batch([
        Request(op="admit", flow=flow),
        Request(op="query", flow_name=flow.name),
        Request(op="release", flow_name=flow.name),
    ])
    AdmissionServer(service)
with contextlib.redirect_stdout(io.StringIO()) as usage:
    try:
        repro.cli.main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(json.dumps({
    "payloads": [admit, query, release],
    "usage": usage.getvalue(),
    "loaded": sorted(m for m in %r if m in sys.modules),
}))
""" % (NOT_SERVED,)


DENSE_SESSION = """
import json, sys

from repro.scenario import load_scenario_file
from repro.service import Request, ShardedAdmissionService

scenario = load_scenario_file(sys.argv[1])
with ShardedAdmissionService(
    scenario.network, options=scenario.options
) as service:
    payloads = [
        service.process_batch([Request(op="admit", flow=flow)])[0]
        for flow in scenario.flows
    ]
print(json.dumps({
    "accepted": sum(1 for p in payloads if p.get("accepted")),
    "numpy": "numpy" in sys.modules,
}))
"""


#: Modules a client fetching ``metrics``/``stats``/``health`` must not load.
NOT_FETCHED = ("numpy", "repro.service.replay", "repro.service.sharding")

FETCH_SESSION = """
import json, sys

import repro.cli
from repro.service import fetch_health_tcp, fetch_metrics_tcp, fetch_stats_tcp

print(json.dumps(sorted(m for m in %r if m in sys.modules)))
""" % (NOT_FETCHED,)


def _run_fresh(code: str, *args: str):
    """Run ``code`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_serve_path_loads_neither_numpy_nor_the_simulator(tmp_path):
    from repro.scenario import REGISTRY, save_scenario_file

    path = tmp_path / "voip-star.json"
    save_scenario_file(
        path, REGISTRY.build("voip-star", n_hosts=16, n_calls=16, seed=1)
    )
    out = _run_fresh(SERVE_SESSION, str(path))
    admit, query, release = out["payloads"]
    assert admit["accepted"], admit
    assert "error" not in query and "error" not in release, out["payloads"]
    assert "serve" in out["usage"]
    assert out["loaded"] == []


def test_dense_serve_session_never_loads_numpy(tmp_path):
    """48 calls between two hosts put 27 flows on one link; admitting
    them all in a served session still never loads numpy."""
    from repro.scenario import REGISTRY, save_scenario_file

    scenario = REGISTRY.build("voip-star", n_hosts=2, n_calls=48, seed=1)
    per_link = Counter(link for f in scenario.flows for link in f.links())
    assert max(per_link.values()) >= 20
    path = tmp_path / "voip-star-dense.json"
    save_scenario_file(path, scenario)
    out = _run_fresh(DENSE_SESSION, str(path))
    assert out == {"accepted": 48, "numpy": False}


def test_wire_fetchers_load_neither_numpy_nor_the_engine():
    assert _run_fresh(FETCH_SESSION) == []


@pytest.mark.parametrize(
    "package", ["repro.sim", "repro.scenario", "repro.service"]
)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert name in dir(module)
        getattr(module, name)
        assert name in vars(module)  # resolved once, then a plain lookup
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_sim_config_is_one_class():
    from repro.sim import SimConfig as from_package
    from repro.sim.config import SimConfig
    from repro.sim.simulator import SimConfig as from_simulator

    assert from_package is SimConfig
    assert from_simulator is SimConfig
