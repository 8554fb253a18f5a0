"""Pins of what the experiment commands print and of the topology cells.

``CLI_PINS`` holds a sha256 of the stdout of eight grid commands, run
at small scale on 8 nodes with the result cache off.  The executor's
accounting line goes to stderr and is not pinned.  ``TOPOLOGY_PINS``
holds ``(T, Th, Ti, messages)`` of the five cross-topology cases on
queens-10 at 8 nodes and the experiment's default seed, run through
:func:`repro.runner.execute_request`.  A change to how a grid is built,
run or rendered shows up here first.
"""

import hashlib

import pytest

from repro.__main__ import main
from repro.experiments.topologies import topology_cases
from repro.runner import RunRequest, execute_request

#: command line -> sha256 of its stdout
CLI_PINS = {
    "table1 --nodes 8 --scale small --no-cache":
        "94a8187b63da88a73e123ec02c69e89afdc9bfc4dbf76f7564cd2c2b6111a0e8",
    "table2 --nodes 8 --scale small --no-cache":
        "e960fea65cba1fa3089eca06823c2598e5c65f4b09e75f53edf7a2ef5aca2336",
    "table3 --nodes 8 --scale small --no-cache":
        "bad0ac443aec1909c19b11d7a85af0a1b59268ac3650c06d18575c7421ef23cc",
    "fig4 --cases 3 --sizes 8 16 --no-cache":
        "5a00de8fa72ef1d6ab5c1c46475d1162369990262b3d6a69f97a7ed831c7c0a5",
    "fig5 --nodes 8 --scale small --no-cache":
        "e9dd9ea4c7e1f2cb238ed33ffc468e2cc9acf146c98f8ad425e94b3aff5e86f7",
    "topologies queens-10 --nodes 8 --scale small --no-cache":
        "e6bd2dc9463692edeff8507b6f7aec6ef9c42de2a30befef174f7ab611c9bcac",
    "faults queens-10 --nodes 8 --scale small --no-cache":
        "725c6eeb902016b964045612fefb7a47778389ed470471dd8af37fdb2e72a8f0",
    "faults queens-10 --nodes 8 --scale small --no-cache --audit":
        "6efdf392672cf8f3257d24c01d48d3ba176ec6ef60d453bf68253035a7fc68d2",
}

#: topology case -> (T, Th, Ti, messages) on queens-10, 8 nodes, seed 77
TOPOLOGY_PINS = {
    "mesh+MWA": (0.017792596235626765, 0.0031784750000000057,
                 0.005617871235626761, 187),
    "tree+walk": (0.017562773740878168, 0.003340425000000006,
                  0.005226098740878163, 200),
    "hypercube+DEM": (0.01842678876955469, 0.004104375000000007,
                      0.005326163769554684, 261),
    "hypercube+optimal": (0.016813388769554707, 0.003041775000000006,
                          0.004775363769554703, 180),
    "crossbar+optimal": (0.01539452000000003, 0.0027404250000000034,
                         0.0036578450000000254, 161),
}


@pytest.mark.parametrize("command", sorted(CLI_PINS))
def test_command_stdout_is_pinned(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_PINS[command]


def test_pins_cover_every_topology_case():
    assert sorted(TOPOLOGY_PINS) == sorted(c.name for c in topology_cases())


@pytest.mark.parametrize("case", sorted(TOPOLOGY_PINS))
def test_topology_cell_is_pinned(case):
    m = execute_request(RunRequest("queens-10", "RIPS", num_nodes=8, seed=77,
                                   scale="small", topology_case=case))
    assert (m.T, m.Th, m.Ti, m.messages) == TOPOLOGY_PINS[case]
    assert m.extra["topology_case"] == case
    assert m.extra["workload_label"] == "10-Queens"
