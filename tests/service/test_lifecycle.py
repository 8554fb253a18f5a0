"""The session lifecycle table is the only guard on session state.

No simulation runs here: records are created directly in each state and
driven through the HTTP routes, so every verb's guard is checked without
waiting on a slice.
"""

import ast
import asyncio
import inspect
import json

import pytest

from repro.runner import RunRequest
from repro.service import ServiceConfig, SessionManager
from repro.service.app import App
from repro.service.http import Request
from repro.store import LocalDirStore

STATES = ("queued", "running", "paused", "done", "failed", "cancelled")
TERMINAL = ("done", "failed", "cancelled")
#: verb -> (HTTP method, route suffix, states it is valid in, the 409's
#: "valid ..." clause)
VERBS = {
    "pause": ("POST", "/pause", ("queued", "running"),
              "while it is queued or running"),
    "resume": ("POST", "/resume", ("paused",), "from the paused state"),
    "fork": ("POST", "/fork", ("paused",), "from the paused state"),
    "cancel": ("DELETE", "", ("queued", "running", "paused"), None),
}
#: valid pairs that start or wait on a simulation (covered end to end in
#: the other service tests)
SIMULATING = {("pause", "queued"), ("pause", "running"),
              ("resume", "paused"), ("cancel", "running")}
CASES = [(verb, state) for verb in VERBS for state in STATES
         if (verb, state) not in SIMULATING]


@pytest.mark.parametrize("verb,state", CASES)
def test_verb_in_each_state(tmp_path, verb, state):
    method, suffix, valid_in, valid = VERBS[verb]

    async def main():
        manager = SessionManager(
            ServiceConfig(port=0, use_result_cache=False, journal=False),
            store=LocalDirStore(tmp_path))
        rec = manager._make_record(
            id=f"s0001-{state}", tenant="tests", state=state,
            request=RunRequest(workload="queens-10", strategy="RIPS",
                               num_nodes=8, scale="small"))
        manager.records[rec.id] = rec
        path = f"/v1/sessions/{rec.id}{suffix}"
        response = await App(manager).handle(Request(
            method=method, target=path, path=path, query={}, headers={}))
        await manager.shutdown()
        return rec, response.status, json.loads(response.body)

    rec, status, doc = asyncio.run(main())
    if verb == "cancel":
        # a terminal record: a 200 no-op; queued or paused: cancelled
        assert status == 200
        assert doc["state"] == rec.state
        assert rec.state == (state if state in TERMINAL else "cancelled")
    else:
        # fork also needs a pause checkpoint, which these records lack
        assert state not in valid_in or verb == "fork"
        assert status == 409
        assert doc == {"error": f"cannot {verb} session {rec.id} in state "
                                f"{state!r}; {verb} is valid {valid}"}
        assert rec.state == state


def test_only_step_stores_a_session_state():
    """``SessionRecord.step`` is the one writer of a record's ``state``.
    Other classes (``HealthMonitor``, ``ServiceUnavailable``) may store
    their own ``self.state``; any other ``<x>.state`` store is a record's.
    """
    tree = ast.parse(inspect.getsource(inspect.getmodule(SessionManager)))
    writers = set()

    def stores_record_state(node, scope):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            owner = getattr(node.value, "id", None)
            return node.attr == "state" and (
                owner != "self" or scope[:1] == ("SessionRecord",))
        return (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "setattr"
                and any(isinstance(arg, ast.Constant) and arg.value == "state"
                        for arg in node.args))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if stores_record_state(child, scope):
                writers.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    assert writers == {"SessionRecord.step"}
