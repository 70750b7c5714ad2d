"""Simulated HTTP and the HTTP-backed AIA fetcher."""

import pytest

from repro.ca import build_hierarchy
from repro.errors import AIAFetchError, HTTPError
from repro.net import (
    FaultPlan,
    HTTPAIAFetcher,
    SimulatedNetwork,
    http_get,
    install_http_server,
    publish_certificate,
)
from repro.trust.aia import RetryingAIAFetcher, complete_via_aia
from repro.x509 import utc


@pytest.fixture()
def network(hierarchy):
    net = SimulatedNetwork(seed=3)
    net.add_vantage("v")
    server = install_http_server(net, "aia.http.example")
    publish_certificate(server, "/root.crt", hierarchy.root.certificate)
    server.put("/hello.txt", b"hello")
    return net, server


class TestHTTP:
    def test_get_success(self, network):
        net, _ = network
        assert http_get(net, "v", "http://aia.http.example/hello.txt") == b"hello"

    def test_get_404(self, network):
        net, _ = network
        with pytest.raises(HTTPError) as excinfo:
            http_get(net, "v", "http://aia.http.example/missing")
        assert excinfo.value.status == 404

    def test_non_http_scheme_rejected(self, network):
        net, _ = network
        with pytest.raises(HTTPError):
            http_get(net, "v", "ftp://aia.http.example/x")

    def test_request_counter(self, network):
        net, server = network
        http_get(net, "v", "http://aia.http.example/hello.txt")
        assert server.requests == 1

    def test_non_get_rejected(self, network):
        from repro.net import HTTPRequest

        _net, server = network
        response = server(HTTPRequest("POST", "/hello.txt"))
        assert response.status == 405


class TestHTTPAIAFetcher:
    def test_fetch_certificate(self, network, hierarchy):
        net, _ = network
        fetcher = HTTPAIAFetcher(net, "v")
        cert = fetcher.fetch("http://aia.http.example/root.crt")
        assert cert == hierarchy.root.certificate
        assert fetcher.fetches == 1

    def test_fetch_404_maps_to_not_found(self, network):
        net, _ = network
        fetcher = HTTPAIAFetcher(net, "v")
        with pytest.raises(AIAFetchError) as excinfo:
            fetcher.fetch("http://aia.http.example/none.crt")
        assert excinfo.value.reason == "not_found"

    def test_fetch_unreachable_host(self, network):
        net, _ = network
        fetcher = HTTPAIAFetcher(net, "v")
        with pytest.raises(AIAFetchError) as excinfo:
            fetcher.fetch("http://gone.example/root.crt")
        assert excinfo.value.reason == "unreachable"

    def test_non_certificate_body_is_wrong_certificate(self, network):
        net, _ = network
        fetcher = HTTPAIAFetcher(net, "v")
        with pytest.raises(AIAFetchError) as excinfo:
            fetcher.fetch("http://aia.http.example/hello.txt")
        assert excinfo.value.reason == "wrong_certificate"

    def test_refused_port_is_unreachable(self, network):
        net, _ = network
        net.get_or_add_host("noport.http.example")  # nothing on :80
        fetcher = HTTPAIAFetcher(net, "v")
        with pytest.raises(AIAFetchError) as excinfo:
            fetcher.fetch("http://noport.http.example/root.crt")
        assert excinfo.value.reason == "unreachable"

    def test_reset_connection_is_unreachable(self, network, hierarchy):
        net, _ = network
        net.set_fault_plan(
            FaultPlan().truncate_next_handshakes("aia.http.example", 1))
        fetcher = HTTPAIAFetcher(net, "v")
        with pytest.raises(AIAFetchError) as excinfo:
            fetcher.fetch("http://aia.http.example/root.crt")
        assert excinfo.value.reason == "unreachable"
        # a reset is transient, so the retry wrapper retries it
        net.set_fault_plan(
            FaultPlan().truncate_next_handshakes("aia.http.example", 1))
        retrying = RetryingAIAFetcher(fetcher, retries=1)
        assert (retrying.fetch("http://aia.http.example/root.crt")
                == hierarchy.root.certificate)

    def test_completion_over_a_reset(self, network):
        net, server = network
        issuing = build_hierarchy("HTTPReset", depth=0,
                                  key_seed_prefix="httpreset").issuing_ca
        leaf = issuing.issue_leaf(
            "reset.http.example",
            aia_uri="http://aia.http.example/issuing.crt",
            not_before=utc(2024, 1, 1), days=365,
        )
        publish_certificate(server, "/issuing.crt", issuing.certificate)
        net.set_fault_plan(
            FaultPlan().truncate_next_handshakes("aia.http.example", 1))
        result = complete_via_aia(leaf, HTTPAIAFetcher(net, "v"))
        assert result.outcome == "unreachable"
        assert result.fetched == ()
        net.set_fault_plan(
            FaultPlan().truncate_next_handshakes("aia.http.example", 1))
        result = complete_via_aia(leaf, HTTPAIAFetcher(net, "v"), retries=1)
        assert result.outcome == "completed"
        assert result.fetched == (issuing.certificate,)
