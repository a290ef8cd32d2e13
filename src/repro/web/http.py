"""A minimal in-process HTTP abstraction (request, response, router).

Just enough of Flask's surface to express the buyer backend's REST API:
method + path routing with ``<placeholder>`` path parameters, JSON bodies,
query parameters and status codes.  Everything runs in-process -- no sockets
-- which keeps experiments deterministic and fast while exercising the same
call structure as the real DApp-to-Flask interaction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import RouteNotFoundError, WebError

Handler = Callable[["HttpRequest"], "HttpResponse"]


@dataclass
class HttpRequest:
    """An HTTP-like request."""

    method: str
    path: str
    json_body: Optional[Dict[str, Any]] = None
    query: Dict[str, str] = field(default_factory=dict)
    path_params: Dict[str, str] = field(default_factory=dict)

    def param(self, name: str, default: Any = None) -> Any:
        """Look up ``name`` in path params, then query, then the JSON body."""
        if name in self.path_params:
            return self.path_params[name]
        if name in self.query:
            return self.query[name]
        if self.json_body and name in self.json_body:
            return self.json_body[name]
        return default


@dataclass
class HttpResponse:
    """An HTTP-like response carrying a JSON-serializable body."""

    status: int
    body: Any = None
    headers: Dict[str, str] = field(default_factory=lambda: {"Content-Type": "application/json"})

    @property
    def ok(self) -> bool:
        """Whether the status code indicates success (2xx)."""
        return 200 <= self.status < 300

    def json(self) -> Any:
        """The response body (already deserialized)."""
        return self.body

    def text(self) -> str:
        """The body rendered as a JSON string."""
        return json.dumps(self.body, sort_keys=True, default=str)

    @classmethod
    def json_ok(cls, body: Any, status: int = 200) -> "HttpResponse":
        """Build a successful JSON response."""
        return cls(status=status, body=body)

    @classmethod
    def error(cls, message: str, status: int = 400) -> "HttpResponse":
        """Build an error response with a standard shape."""
        return cls(status=status, body={"error": message})


class Router:
    """Registers handlers for (method, path-pattern) pairs and dispatches.

    A router may live on a class: its handlers are then the class's plain
    functions, and :meth:`dispatch` passes the instance that serves the
    request, so no instance holds its own bound methods.
    """

    def __init__(self) -> None:
        self._routes: List[Tuple[str, List[str], Handler]] = []

    def add_route(self, method: str, pattern: str, handler: Handler) -> None:
        """Register ``handler`` for ``method`` and a ``/seg/<param>`` pattern."""
        segments = [seg for seg in pattern.strip("/").split("/") if seg]
        self._routes.append((method.upper(), segments, handler))

    def route(self, method: str, pattern: str) -> Callable[[Handler], Handler]:
        """Decorator form of :meth:`add_route`."""

        def decorator(handler: Handler) -> Handler:
            self.add_route(method, pattern, handler)
            return handler

        return decorator

    @staticmethod
    def _match(pattern_segments: List[str], path_segments: List[str]) -> Optional[Dict[str, str]]:
        """Return extracted path params if the pattern matches, else None."""
        if len(pattern_segments) != len(path_segments):
            return None
        params: Dict[str, str] = {}
        for pattern_seg, path_seg in zip(pattern_segments, path_segments):
            if pattern_seg.startswith("<") and pattern_seg.endswith(">"):
                params[pattern_seg[1:-1]] = path_seg
            elif pattern_seg != path_seg:
                return None
        return params

    def dispatch(self, request: HttpRequest, *owner: Any) -> HttpResponse:
        """Find the matching handler and invoke it as ``handler(*owner, request)``.

        Handler exceptions of type :class:`WebError` become 400 responses;
        unexpected exceptions become 500 responses so that a buggy handler
        cannot crash the whole simulation.
        """
        path_segments = [seg for seg in request.path.split("?")[0].strip("/").split("/") if seg]
        for method, pattern_segments, handler in self._routes:
            if method != request.method.upper():
                continue
            params = self._match(pattern_segments, path_segments)
            if params is None:
                continue
            request.path_params = params
            try:
                return handler(*owner, request)
            except WebError as exc:
                response = HttpResponse.error(str(exc), status=400)
                # Carry the concrete class so RPC/SDK layers on top can
                # rehydrate the original exception.
                response.body["error_class"] = type(exc).__name__
                return response
            except Exception as exc:  # noqa: BLE001 - surface as a 500 response
                return HttpResponse.error(f"internal error: {exc}", status=500)
        raise RouteNotFoundError(f"no route for {request.method} {request.path}")
