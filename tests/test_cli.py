"""Tests for the ``python -m repro`` command-line interface."""

import json
import re

import pytest

import repro.__main__
from repro.__main__ import main


def test_workloads_listing(capsys):
    assert main(["workloads", "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "queens-10" in out and "gromos-16" in out


def test_run_single_cell(capsys):
    assert main(["run", "queens-10", "RIPS", "--nodes", "16",
                 "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "10-Queens" in out and "RIPS" in out


def test_fig4_series(capsys):
    assert main(["fig4", "--cases", "3", "--sizes", "8"]) == 0
    out = capsys.readouterr().out
    assert "8 procs" in out


def test_table2(capsys):
    assert main(["table2", "--nodes", "16", "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out


def test_docstring_lists_every_command(capsys):
    # the module docstring is the command reference: one entry per
    # command, headed by a line such as "``table1`` / ``table2``"
    with pytest.raises(SystemExit):
        main(["-h"])
    usage = capsys.readouterr().out
    commands = re.search(r"\{([\w,]+)\}", usage).group(1).split(",")
    assert len(commands) > 10
    heads = [line for line in repro.__main__.__doc__.splitlines()
             if re.fullmatch(r"``\w+``( / ``\w+``)*", line)]
    listed = {name for line in heads for name in re.findall(r"``(\w+)``", line)}
    assert sorted(set(commands) - listed) == []


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_unknown_workload_key():
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["run", "bogus-42", "RIPS", "--scale", "small"])


def test_trace_emits_chrome_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "nqueens", "--strategy", "rips", "--nodes", "8",
                 "--seed", "7", "--scale", "small", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "queens-10" in captured.err  # lenient-resolution note
    assert str(out) in captured.out
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    cats = {e.get("cat") for e in events}
    assert "task" in cats and "phase" in cats
    phase_names = {e["name"] for e in events if e.get("cat") == "phase"}
    assert {"init", "gather", "plan", "transfer"} <= phase_names


def test_faults_grid_renders_and_audit_passes(capsys):
    # crash-only sweep (no drop levels) on the smallest grid; --audit
    # traces every cell and runs the task-conservation audit over it
    assert main(["faults", "queens-10", "--nodes", "16", "--scale", "small",
                 "--drops", "--audit"]) == 0
    captured = capsys.readouterr()
    assert "fig_faults" in captured.out
    assert "fault-free" in captured.out and "crash x1" in captured.out
    for strategy in ("random", "gradient", "RID", "RIPS"):
        assert strategy in captured.out
    assert "conservation audit: 8/8 cells ok" in captured.out
    assert "8 cell(s)" in captured.err  # executor accounting on stderr


def test_trace_jsonl_format(tmp_path):
    out = tmp_path / "trace.jsonl"
    assert main(["trace", "queens-10", "--nodes", "8", "--scale", "small",
                 "--out", str(out), "--format", "jsonl"]) == 0
    lines = out.read_text().splitlines()
    assert lines and all(json.loads(line)["ph"] for line in lines)
