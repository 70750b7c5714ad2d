"""Minimal HTTP over the simulated network — the AIA transport.

AIA caIssuers URIs are plain ``http://`` URLs in the wild (the paper
notes the MITM/privacy concerns that follow).  This module provides a
static-file HTTP server, a GET client, and :class:`HTTPAIAFetcher`,
which adapts the HTTP layer to the :class:`~repro.trust.aia.AIAFetcher`
interface so client models fetch issuers across the same simulated
wire the scanner uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from urllib.parse import urlparse

from repro.errors import AIAFetchError, HTTPError, HostUnreachableError, NetworkError
from repro.net.simnet import SimulatedNetwork
from repro.x509 import Certificate, from_pem

HTTP_PORT = 80


@dataclass(frozen=True, slots=True)
class HTTPRequest:
    method: str
    path: str


@dataclass(frozen=True, slots=True)
class HTTPResponse:
    status: int
    body: bytes

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class StaticHTTPServer:
    """Serves a path→bytes mapping; unknown paths return 404."""

    def __init__(self) -> None:
        self._files: dict[str, bytes] = {}
        self.requests = 0

    def put(self, path: str, body: bytes) -> None:
        self._files[path] = body

    def __call__(self, payload: object) -> HTTPResponse:
        if not isinstance(payload, HTTPRequest):
            raise NetworkError("expected an HTTPRequest")
        self.requests += 1
        if payload.method != "GET":
            return HTTPResponse(405, b"method not allowed")
        body = self._files.get(payload.path)
        if body is None:
            return HTTPResponse(404, b"not found")
        return HTTPResponse(200, body)


def http_get(network: SimulatedNetwork, vantage: str, url: str) -> bytes:
    """GET ``url`` from ``vantage``; raises :class:`HTTPError` on non-200."""
    parsed = urlparse(url)
    if parsed.scheme != "http":
        raise HTTPError(f"only http:// is modelled, got {url!r}", 400)
    host = parsed.hostname or ""
    connection = network.connect(vantage, host, parsed.port or HTTP_PORT)
    response = connection.request(HTTPRequest("GET", parsed.path or "/"))
    if not isinstance(response, HTTPResponse):
        raise HTTPError(f"{url}: malformed response", 502)
    if not response.ok:
        raise HTTPError(f"{url}: status {response.status}", response.status)
    return response.body


class HTTPAIAFetcher:
    """An :class:`~repro.trust.aia.AIAFetcher` backed by simulated HTTP.

    Each fetch is a real (simulated) network round trip, so unreachable
    AIA hosts and 404s surface exactly like the paper's 88 failed-URI
    chains.
    """

    def __init__(self, network: SimulatedNetwork, vantage: str) -> None:
        self.network = network
        self.vantage = vantage
        self.fetches = 0

    def fetch(self, uri: str) -> Certificate:
        self.fetches += 1
        try:
            body = http_get(self.network, self.vantage, uri)
        except HostUnreachableError as exc:
            raise AIAFetchError(str(exc), uri, "unreachable") from exc
        except HTTPError as exc:
            reason = "not_found" if exc.status == 404 else "unreachable"
            raise AIAFetchError(str(exc), uri, reason) from exc
        try:
            return from_pem(body.decode())
        except Exception as exc:
            raise AIAFetchError(
                f"{uri}: body is not a certificate", uri, "wrong_certificate"
            ) from exc


def install_http_server(network: SimulatedNetwork,
                        host_name: str) -> StaticHTTPServer:
    """Bind a static HTTP server on ``host_name``:80."""
    server = StaticHTTPServer()
    network.get_or_add_host(host_name).bind(HTTP_PORT, server)
    return server


def publish_certificate(server: StaticHTTPServer, path: str,
                        cert: Certificate) -> None:
    """Serve ``cert`` as PEM at ``path`` (an AIA repository entry)."""
    server.put(path, cert.pem.encode())
