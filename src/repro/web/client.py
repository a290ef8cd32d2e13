"""A small REST client used by the DApp facades to call the buyer backend."""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol

from repro.errors import RouteNotFoundError, WebError
from repro.web.http import HttpRequest, HttpResponse


class App(Protocol):
    """What serves REST requests in process: a :class:`~repro.web.http.Router`
    or an application such as :class:`~repro.web.backend.BuyerBackend`."""

    def dispatch(self, request: HttpRequest) -> HttpResponse:
        """Answer one request (raising ``RouteNotFoundError`` for no route)."""


class RestClient:
    """Issues requests against an in-process :class:`App`."""

    def __init__(self, app: App) -> None:
        self.app = app

    def request(
        self,
        method: str,
        path: str,
        json_body: Optional[Dict[str, Any]] = None,
        query: Optional[Dict[str, str]] = None,
    ) -> HttpResponse:
        """Send one request and return the response."""
        request = HttpRequest(
            method=method,
            path=path,
            json_body=json_body,
            query=dict(query or {}),
        )
        try:
            return self.app.dispatch(request)
        except RouteNotFoundError as exc:
            return HttpResponse.error(str(exc), status=404)
        except WebError as exc:
            # A handler let a WebError escape the router's own translation;
            # keep it inside the HTTP abstraction instead of leaking a raw
            # exception to the caller.
            response = HttpResponse.error(str(exc), status=400)
            response.body["error_class"] = type(exc).__name__
            return response

    def get(self, path: str, query: Optional[Dict[str, str]] = None) -> HttpResponse:
        """HTTP GET."""
        return self.request("GET", path, query=query)

    def post(self, path: str, json_body: Optional[Dict[str, Any]] = None) -> HttpResponse:
        """HTTP POST with a JSON body."""
        return self.request("POST", path, json_body=json_body)

    def get_json(self, path: str, query: Optional[Dict[str, str]] = None) -> Any:
        """GET and return the JSON body, raising on non-2xx responses."""
        response = self.get(path, query=query)
        if not response.ok:
            raise WebError(f"GET {path} failed ({response.status}): {response.body}")
        return response.json()

    def post_json(self, path: str, json_body: Optional[Dict[str, Any]] = None) -> Any:
        """POST and return the JSON body, raising on non-2xx responses."""
        response = self.post(path, json_body=json_body)
        if not response.ok:
            raise WebError(f"POST {path} failed ({response.status}): {response.body}")
        return response.json()
