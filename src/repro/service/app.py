"""The v1 HTTP API: routes on top of :class:`SessionManager`.

Route table (all JSON in/out; tenant identified by ``X-Repro-Tenant``,
default ``"public"``):

========  ==============================  =====================================
GET       /v1/healthz                     liveness probe
GET       /v1/stats                       admission/quota/store counters
GET       /v1/metrics                     metrics-registry snapshot (repro.report/1)
POST      /v1/sessions                    submit one cell (wire RunRequest)
GET       /v1/sessions                    list session status documents
GET       /v1/sessions/<id>               one session's status
DELETE    /v1/sessions/<id>               cancel
POST      /v1/sessions/<id>/pause         checkpoint + park (slice boundary)
POST      /v1/sessions/<id>/resume        restore + continue
POST      /v1/sessions/<id>/fork          new session off the pause checkpoint
GET       /v1/sessions/<id>/events        WebSocket: live progress frames
POST      /v1/grid                        batch of cells via the process pool
========  ==============================  =====================================

Submit accepts either a raw wire request (``{"api_version": 1,
"workload": ...}``) or an envelope ``{"request": {...}, "coalesce":
false}``.  Schema violations come back as 400 with the offending field
names; quota/admission rejections as 429 with ``Retry-After``.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.runner import RunRequest, WireFormatError

from .http import HttpError, Request, Response, json_response
from .manager import ServiceError, SessionManager

__all__ = ["App"]

_TENANT_HEADER = "x-repro-tenant"
DEFAULT_TENANT = "public"


class App:
    """Stateless-ish dispatcher: parses routes, talks to the manager."""

    def __init__(self, manager: SessionManager) -> None:
        self.manager = manager

    # ------------------------------------------------------------------
    async def handle(self, request: Request) -> Response:
        """Dispatch one non-WebSocket request to its handler."""
        try:
            return await self._route(request)
        except WireFormatError as exc:
            return json_response({"error": str(exc)}, status=400)
        except ServiceError as exc:
            headers = {}
            retry = getattr(exc, "retry_after", None)
            if retry is not None and retry != float("inf"):
                headers["Retry-After"] = str(max(1, round(retry)))
            return json_response(exc.to_doc(), status=exc.status,
                                 headers=headers)
        except HttpError as exc:
            return json_response({"error": str(exc)}, status=exc.status)

    async def _route(self, request: Request) -> Response:
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]

        if parts[:1] != ["v1"]:
            return json_response(
                {"error": f"unknown path {request.path!r}; the API lives "
                          f"under /v1"}, status=404)
        parts = parts[1:]

        if parts == ["healthz"] and method == "GET":
            # always 200 — the *document* carries the health verdict, so
            # probes distinguish "degraded" from "dead" (no response)
            doc = self.manager.health_doc()
            headers = {}
            if not doc["ok"]:
                headers["Retry-After"] = str(
                    max(1, round(doc.get("retry_after", 1))))
            return json_response(doc, headers=headers)
        if parts == ["stats"] and method == "GET":
            return json_response(self.manager.stats())
        if parts == ["metrics"] and method == "GET":
            return json_response(self.manager.metrics_doc())
        if parts == ["sessions"]:
            if method == "POST":
                return self._submit(request)
            if method == "GET":
                return json_response({"sessions": self.manager.list_docs()})
            return _method_not_allowed(method, path)
        if parts == ["grid"] and method == "POST":
            return await self._grid(request)
        if len(parts) == 2 and parts[0] == "sessions":
            session_id = parts[1]
            if method == "GET":
                return json_response(self.manager.get(session_id).to_doc())
            if method == "DELETE":
                rec = await self.manager.cancel(session_id)
                return json_response(rec.to_doc())
            return _method_not_allowed(method, path)
        if len(parts) == 3 and parts[0] == "sessions":
            session_id, verb = parts[1], parts[2]
            if method != "POST":
                return _method_not_allowed(method, path)
            if verb == "pause":
                rec = await self.manager.pause(session_id)
                return json_response(rec.to_doc())
            if verb == "resume":
                rec = self.manager.resume(session_id)
                return json_response(rec.to_doc(), status=202)
            if verb == "fork":
                rec = self.manager.fork(
                    session_id, tenant=_tenant(request))
                return json_response(rec.to_doc(), status=201)
        return json_response({"error": f"no route for {method} {path}"},
                             status=404)

    # ------------------------------------------------------------------
    def _submit(self, request: Request) -> Response:
        doc = request.json()
        if not isinstance(doc, dict):
            raise HttpError(400, "submit body must be a JSON object")
        coalesce = True
        if "request" in doc and "workload" not in doc:
            envelope = doc
            doc = envelope["request"]
            coalesce = bool(envelope.get("coalesce", True))
            if not isinstance(doc, dict):
                raise HttpError(400, "'request' must be a JSON object")
        req = RunRequest.from_wire(doc)
        rec = self.manager.submit(_tenant(request), req, coalesce=coalesce)
        status = 200 if rec.state == "done" else 201
        return json_response(rec.to_doc(), status=status)

    async def _grid(self, request: Request) -> Response:
        doc = request.json()
        if not isinstance(doc, dict) or not isinstance(
                doc.get("requests"), list):
            raise HttpError(
                400, "grid body must be {\"requests\": [wire requests...]}")
        requests = [RunRequest.from_wire(item) for item in doc["requests"]]
        if not requests:
            raise HttpError(400, "grid needs at least one request")
        jobs = doc.get("jobs")
        if jobs is not None and not isinstance(jobs, int):
            raise HttpError(400, "'jobs' must be an integer")
        result = await self.manager.run_grid(
            _tenant(request), requests, jobs=jobs)
        return json_response(result)

    # ------------------------------------------------------------------
    # WebSocket endpoint support (the server drives the socket; the app
    # only resolves the subscription)
    # ------------------------------------------------------------------
    def events_session(self, request: Request) -> Optional[str]:
        """The session id if ``request`` targets the events endpoint."""
        parts = [p for p in request.path.split("/") if p]
        if (len(parts) == 4 and parts[0] == "v1" and parts[1] == "sessions"
                and parts[3] == "events"):
            return parts[2]
        return None


def _tenant(request: Request) -> str:
    return request.headers.get(_TENANT_HEADER, "").strip() or DEFAULT_TENANT


def _method_not_allowed(method: str, path: str) -> Response:
    return json_response(
        {"error": f"{method} is not valid for {path}"}, status=405)


def frame_bytes(frame: dict) -> bytes:
    """Serialize one progress frame for a WebSocket text message."""
    return json.dumps(frame, sort_keys=True, default=repr).encode()
