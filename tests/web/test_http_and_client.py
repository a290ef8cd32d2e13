"""Tests for repro.web.http and repro.web.client."""

import pytest

from repro.errors import RouteNotFoundError, WebError
from repro.web.client import RestClient
from repro.web.http import HttpRequest, HttpResponse, Router


@pytest.fixture()
def router():
    router = Router()

    @router.route("GET", "/api/items/<item_id>")
    def get_item(request):
        return HttpResponse.json_ok({"id": request.path_params["item_id"]})

    @router.route("POST", "/api/items")
    def create_item(request):
        name = request.param("name")
        if not name:
            raise WebError("name is required")
        return HttpResponse.json_ok({"created": name}, status=201)

    @router.route("GET", "/api/crash")
    def crash(_request):
        raise RuntimeError("boom")

    return router


class TestRouter:
    def test_path_params_extracted(self, router):
        response = router.dispatch(HttpRequest("GET", "/api/items/42"))
        assert response.ok
        assert response.json() == {"id": "42"}

    def test_unknown_route_raises(self, router):
        with pytest.raises(RouteNotFoundError):
            router.dispatch(HttpRequest("GET", "/api/unknown"))

    def test_method_mismatch_is_not_found(self, router):
        with pytest.raises(RouteNotFoundError):
            router.dispatch(HttpRequest("DELETE", "/api/items/42"))

    def test_web_error_becomes_400(self, router):
        response = router.dispatch(HttpRequest("POST", "/api/items", json_body={}))
        assert response.status == 400
        assert "error" in response.json()

    def test_unexpected_error_becomes_500(self, router):
        response = router.dispatch(HttpRequest("GET", "/api/crash"))
        assert response.status == 500

    def test_post_with_body(self, router):
        response = router.dispatch(
            HttpRequest("POST", "/api/items", json_body={"name": "model"})
        )
        assert response.status == 201
        assert response.json() == {"created": "model"}

    def test_param_lookup_order(self):
        request = HttpRequest(
            "GET",
            "/x",
            json_body={"key": "from-body"},
            query={"key": "from-query"},
            path_params={"key": "from-path"},
        )
        assert request.param("key") == "from-path"
        assert request.param("missing", "default") == "default"

    def test_trailing_slash_equivalence(self, router):
        assert router.dispatch(HttpRequest("GET", "/api/items/7/")).ok

    def test_add_route_matches_case_insensitively_by_method(self):
        router = Router()
        router.add_route("get", "/tasks/<task>/cids", lambda request: HttpResponse.json_ok(
            dict(request.path_params)))
        response = router.dispatch(HttpRequest("GET", "/tasks/t1/cids?page=2"))
        assert response.json() == {"task": "t1"}
        with pytest.raises(RouteNotFoundError):
            router.dispatch(HttpRequest("GET", "/tasks/t1"))

    def test_response_text_renders_json(self):
        assert HttpResponse.json_ok({"a": 1}).text() == '{"a": 1}'


class TestRestClient:
    def test_get_and_post_json(self, router):
        client = RestClient(router)
        assert client.get_json("/api/items/9") == {"id": "9"}
        assert client.post_json("/api/items", {"name": "m"}) == {"created": "m"}

    def test_missing_route_is_404(self, router):
        client = RestClient(router)
        response = client.get("/nope")
        assert response.status == 404

    def test_get_json_raises_on_error(self, router):
        client = RestClient(router)
        with pytest.raises(WebError):
            client.post_json("/api/items", {})
