"""Pins of the ``repro trace --report`` text.

``REPORT_PINS`` holds a sha256 of the command's stdout after its first
line (which names the output path) for three small-scale workloads
under every strategy at 32 nodes and the CLI's default seed.  The
report reads the trace through :mod:`repro.obs.attribution`, so a
change to the sweep or to the per-node table shows up here first.
The per-node table lists every rank of the machine, also the ranks
that never ran a CPU burst: queens-10 and ida-1 under RID and gradient
leave 7 to 24 of their 32 ranks without a span.
"""

import hashlib

import pytest

from repro.__main__ import main

#: (workload key, strategy) -> sha256 of the report text
REPORT_PINS = {
    ("queens-10", "RIPS"):
        "b3077b4bde159ad1bc664d4cd633643970e0a43d807678558f14157dbf6b21c4",
    ("queens-10", "RID"):
        "88f3cc5bbc963497f450e73269030cc9e76cce8ddd195a9eba3dd5e96639dbf7",
    ("queens-10", "gradient"):
        "b6d65b9d2e391543dc201dfe57c5950d3c92721d5d621f4c762d937110c1cace",
    ("queens-10", "random"):
        "d24c120a7685a4bef8dabc739134f5f8e87a27620d697504dc1731f11febb18e",
    ("ida-1", "RIPS"):
        "daa4172b98ae50433328309708d851084fef5656a51c45f1a857c657d1ee4154",
    ("ida-1", "RID"):
        "3563e06dcfaa55549b03e9a355f2eb13930a621a1462de913785bbaff3b8c9c4",
    ("ida-1", "gradient"):
        "dbd5a35d0e1c68aa8bbd305334bc15d3c935f532d009e874a63ba88eab8b0bb8",
    ("ida-1", "random"):
        "a034ddf7aacd17e4f7c58d9db9ae917a25239a265cc3eb0fa01fff52df045746",
    ("gromos-8", "RIPS"):
        "540409ef7c844557db31edd6575319b1a2674980575042cf194de98bc44ca01e",
    ("gromos-8", "RID"):
        "06ec8bfdacd8260068add81434b36cb4f7e6299716af0c4492251f3575c2e8ab",
    ("gromos-8", "gradient"):
        "5403b88df17a04036f8641e982c1e96992d6202539da84c24ebe934c77f20747",
    ("gromos-8", "random"):
        "6cd57fb8758f60593dcf0333649b4cf9896f1be4eff818b197a226a63f829f97",
}


def _report(key: str, strategy: str, tmp_path, capsys) -> str:
    out = tmp_path / "trace.json"
    assert main(["trace", key, "--strategy", strategy, "--nodes", "32",
                 "--scale", "small", "--report", "--out", str(out)]) == 0
    first, rest = capsys.readouterr().out.split("\n", 1)
    assert str(out) in first
    return rest


@pytest.mark.parametrize("key,strategy", sorted(REPORT_PINS))
def test_trace_report_text_is_pinned(key, strategy, tmp_path, capsys):
    text = _report(key, strategy, tmp_path, capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        REPORT_PINS[key, strategy]


def test_report_lists_ranks_that_never_ran(tmp_path, capsys):
    # gradient keeps ida-1 on 8 of 32 ranks (mu 3.7 %); the 24 ranks
    # that never ran are the ones that explain that mu
    text = _report("ida-1", "gradient", tmp_path, capsys)
    table = text.split("per-node time (sim seconds)\n", 1)[1].split("\n\n")[0]
    rows = [line.split() for line in table.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == list(range(32))
    idle = [row for row in rows if row[1:3] == ["0.000", "0.000"]
            and row[4:] == ["0", "0"]]
    assert len(idle) >= 24
