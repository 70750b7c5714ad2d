"""The miniature TLS handshake layer."""

import pytest

from repro.ca import build_hierarchy
from repro.errors import TLSHandshakeError
from repro.net import (
    CertificateMessage,
    ClientHello,
    SimulatedNetwork,
    TLS12,
    TLS13,
    TLSServer,
    TLSServerConfig,
    install_tls_server,
    perform_handshake,
)
from repro.x509 import encoding, utc


def count_calls(monkeypatch, module, name):
    """Record the first argument of every call to ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counting(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def sibling_chains(org):
    """Two hosts' chains under one fresh intermediate, by domain.

    Fresh certificates: the session fixtures' may already hold their
    cached encodings.
    """
    hierarchy = build_hierarchy(org, depth=1, key_seed_prefix=org)
    return {
        domain: hierarchy.chain_for(hierarchy.issue_leaf(
            domain, not_before=utc(2024, 1, 1), days=365))
        for domain in ("a.example", "b.example")
    }


@pytest.fixture(scope="module")
def network(hierarchy, leaf):
    net = SimulatedNetwork(seed=5)
    net.add_vantage("v")
    chain = hierarchy.chain_for(leaf)
    install_tls_server(net, "tls.example", TLSServerConfig(default_chain=chain))
    return net, chain


class TestCertificateMessage:
    def test_roundtrip(self, chain):
        message = CertificateMessage.from_chain(list(chain))
        assert message.certificates() == list(chain)
        assert message.size > 0


class TestServer:
    def test_version_negotiation_prefers_client_order(self, chain):
        server = TLSServer(TLSServerConfig(default_chain=list(chain)))
        flight = server(ClientHello("x", versions=(TLS13, TLS12)))
        assert flight.hello.version == TLS13
        flight = server(ClientHello("x", versions=(TLS12,)))
        assert flight.hello.version == TLS12

    def test_no_common_version(self, chain):
        server = TLSServer(TLSServerConfig(
            default_chain=list(chain), supported_versions=(TLS12,)
        ))
        with pytest.raises(TLSHandshakeError):
            server(ClientHello("x", versions=(TLS13,)))

    def test_no_certificate_configured(self):
        server = TLSServer(TLSServerConfig())
        with pytest.raises(TLSHandshakeError):
            server(ClientHello("x"))

    def test_bad_payload_rejected(self, chain):
        server = TLSServer(TLSServerConfig(default_chain=list(chain)))
        with pytest.raises(TLSHandshakeError):
            server("GET / HTTP/1.1")

    def test_per_version_chains(self, chain):
        shorter = list(chain[:1])
        server = TLSServer(TLSServerConfig(
            default_chain=list(chain), chains={TLS13: shorter}
        ))
        assert len(server(ClientHello("x", versions=(TLS13,)))
                   .certificate.certificates()) == 1
        assert len(server(ClientHello("x", versions=(TLS12,)))
                   .certificate.certificates()) == len(chain)

    def test_handshake_counter(self, chain):
        server = TLSServer(TLSServerConfig(default_chain=list(chain)))
        server(ClientHello("x"))
        server(ClientHello("x"))
        assert server.handshakes == 2

    def test_servers_sharing_an_intermediate_encode_it_once(self,
                                                            monkeypatch):
        servers = [TLSServer(TLSServerConfig(default_chain=chain))
                   for chain in sibling_chains("Encode Once").values()]
        encodes = count_calls(monkeypatch, encoding, "to_pem")
        flights = [server(ClientHello("x")).certificate.pem
                   for server in servers for _ in range(2)]
        # two leaves plus the one shared intermediate, however often
        # each server answers
        assert len(encodes) == 3
        assert flights[0] == flights[1] != flights[2] == flights[3]


class TestClientHandshake:
    def test_handshake_returns_served_chain(self, network):
        net, chain = network
        result = perform_handshake(net, "v", "tls.example")
        assert list(result.chain) == chain
        assert result.version == TLS13
        assert result.wire_bytes > len(chain) * 100

    def test_handshake_with_tls12_only(self, network):
        net, _ = network
        result = perform_handshake(net, "v", "tls.example", versions=(TLS12,))
        assert result.version == TLS12

    def test_unreachable_host_raises(self, network):
        net, _ = network
        from repro.errors import HostUnreachableError

        with pytest.raises(HostUnreachableError):
            perform_handshake(net, "v", "nothere.example")

    def test_memo_decodes_each_flight_once(self, network, monkeypatch):
        net, chain = network
        net.add_vantage("w")
        decodes = count_calls(monkeypatch, encoding, "certificate_from_dict")
        memo: dict = {}
        first = perform_handshake(net, "v", "tls.example", memo=memo)
        second = perform_handshake(net, "w", "tls.example", memo=memo)
        # one decode per block: the second vantage gets the same objects
        assert len(decodes) == len(chain)
        assert all(a is b for a, b in zip(first.chain, second.chain))
        assert list(first.chain) == chain
        unmemoised = perform_handshake(net, "v", "tls.example")
        assert len(decodes) == 2 * len(chain)
        assert unmemoised == first

    def test_memo_shares_a_common_intermediate(self, monkeypatch):
        net = SimulatedNetwork(seed=6)
        net.add_vantage("v")
        for domain, chain in sibling_chains("Shared Decode").items():
            install_tls_server(net, domain,
                               TLSServerConfig(default_chain=chain))
        decodes = count_calls(monkeypatch, encoding, "certificate_from_dict")
        memo: dict = {}
        first = perform_handshake(net, "v", "a.example", memo=memo)
        second = perform_handshake(net, "v", "b.example", memo=memo)
        assert first.chain[0] != second.chain[0]
        # the leaves differ; the intermediate is decoded once and shared
        assert all(a is b for a, b in zip(first.chain[1:], second.chain[1:]))
        assert len(decodes) == len(first.chain) + 1
