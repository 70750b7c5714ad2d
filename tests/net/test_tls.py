"""The miniature TLS handshake layer."""

import pytest

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
        decodes = []
        certificates = CertificateMessage.certificates

        def counting(message):
            decodes.append(message.pem)
            return certificates(message)

        monkeypatch.setattr(CertificateMessage, "certificates", counting)
        memo: dict = {}
        first = perform_handshake(net, "v", "tls.example", memo=memo)
        second = perform_handshake(net, "w", "tls.example", memo=memo)
        # one flight, one decode: the second vantage gets the same tuple
        assert len(decodes) == 1
        assert second.chain is first.chain
        assert list(first.chain) == chain
        unmemoised = perform_handshake(net, "v", "tls.example")
        assert len(decodes) == 2
        assert unmemoised == first
