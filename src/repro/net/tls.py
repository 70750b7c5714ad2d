"""A miniature TLS handshake over the simulated network.

Only the parts the paper's measurement touches are modelled: the client
offers a protocol version and SNI, the server picks a version and
answers with a Certificate message carrying its configured chain — the
*list* of certificates, in whatever (possibly non-compliant) order the
deployment put them.  Servers may be configured with different chains
per TLS version, reproducing the paper's observation that 1.2% of
domains served different certificates under TLS 1.2 vs 1.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TLSHandshakeError
from repro.net.simnet import SimulatedNetwork
from repro.x509 import Certificate, load_pem_bundle, to_pem_bundle

TLS12 = "TLS1.2"
TLS13 = "TLS1.3"
DEFAULT_PORT = 443


@dataclass(frozen=True, slots=True)
class ClientHello:
    """The client's opening flight (the fields we need of it)."""

    server_name: str
    versions: tuple[str, ...] = (TLS13, TLS12)


@dataclass(frozen=True, slots=True)
class ServerHello:
    """Version negotiation result."""

    version: str


@dataclass(frozen=True, slots=True)
class CertificateMessage:
    """The server's Certificate message.

    ``pem`` is the wire payload; :meth:`certificates` decodes it.  The
    PEM detour matters: it is what makes the scanner measure realistic
    payload sizes for rate limiting, and what guarantees the analysis
    only sees what was actually "sent".
    """

    pem: str

    @classmethod
    def from_chain(cls, chain: list[Certificate]) -> "CertificateMessage":
        return cls(to_pem_bundle(chain))

    def certificates(self) -> list[Certificate]:
        return load_pem_bundle(self.pem)

    @property
    def size(self) -> int:
        return len(self.pem.encode())


@dataclass(frozen=True, slots=True)
class ServerFlight:
    """ServerHello + Certificate, the reply to a ClientHello."""

    hello: ServerHello
    certificate: CertificateMessage

    @property
    def size(self) -> int:
        return self.certificate.size + 64  # headers, roughly


@dataclass
class TLSServerConfig:
    """One host's TLS deployment.

    ``chains`` maps a TLS version to the certificate list served under
    it; ``default_chain`` covers versions without a dedicated entry;
    ``vantage_chains`` overrides everything for specific client
    locations (the paper saw some domains serve different certificates
    to its US and Australia vantage points).  An empty configuration
    refuses the handshake.
    """

    default_chain: list[Certificate] = field(default_factory=list)
    chains: dict[str, list[Certificate]] = field(default_factory=dict)
    vantage_chains: dict[str, list[Certificate]] = field(default_factory=dict)
    supported_versions: tuple[str, ...] = (TLS13, TLS12)

    def chain_for(self, version: str,
                  vantage: str | None = None) -> list[Certificate]:
        if vantage is not None and vantage in self.vantage_chains:
            return self.vantage_chains[vantage]
        return self.chains.get(version, self.default_chain)


class TLSServer:
    """The port-443 handler for one simulated host."""

    #: the simulator passes the requesting vantage so GeoDNS-style
    #: per-location serving can be modelled
    vantage_aware = True

    def __init__(self, config: TLSServerConfig) -> None:
        self.config = config
        self.handshakes = 0
        self._flight_cache: dict[tuple[str | None, str], ServerFlight] = {}

    def __call__(self, payload: object, *,
                 vantage: str | None = None) -> ServerFlight:
        if not isinstance(payload, ClientHello):
            raise TLSHandshakeError("expected a ClientHello")
        version = next(
            (v for v in payload.versions
             if v in self.config.supported_versions),
            None,
        )
        if version is None:
            raise TLSHandshakeError(
                f"no common version: client {payload.versions}, "
                f"server {self.config.supported_versions}"
            )
        self.handshakes += 1
        key = (vantage if vantage in self.config.vantage_chains else None,
               version)
        flight = self._flight_cache.get(key)
        if flight is None:
            chain = self.config.chain_for(version, vantage)
            if not chain:
                raise TLSHandshakeError("server has no certificate configured")
            flight = ServerFlight(
                ServerHello(version), CertificateMessage.from_chain(chain)
            )
            self._flight_cache[key] = flight
        return flight


@dataclass(frozen=True, slots=True)
class HandshakeResult:
    """What the scanning client records for one successful handshake."""

    domain: str
    version: str
    chain: tuple[Certificate, ...]
    wire_bytes: int


def perform_handshake(
    network: SimulatedNetwork,
    vantage: str,
    domain: str,
    *,
    versions: tuple[str, ...] = (TLS13, TLS12),
    port: int = DEFAULT_PORT,
    memo: dict[str, tuple[Certificate, ...]] | None = None,
) -> HandshakeResult:
    """Run one ClientHello→Certificate exchange from ``vantage``.

    Raises :class:`~repro.errors.HostUnreachableError` or
    :class:`~repro.errors.TLSHandshakeError` on failure, mirroring the
    scanner's distinction between network and protocol errors.

    ``memo`` maps a Certificate message's PEM text to its decoded
    chain: a host usually sends every vantage the same flight, so a
    memo shared by the vantage sweeps decodes each flight once.  The
    caller scopes it (one collection, one shard) so decoded chains are
    released with the records that hold them.
    """
    connection = network.connect(vantage, domain, port)
    flight = connection.request(ClientHello(domain, versions))
    if not isinstance(flight, ServerFlight):
        raise TLSHandshakeError(f"{domain}: unexpected server response")
    pem = flight.certificate.pem
    chain = memo.get(pem) if memo is not None else None
    if chain is None:
        chain = tuple(flight.certificate.certificates())
        if memo is not None:
            memo[pem] = chain
    return HandshakeResult(
        domain=domain,
        version=flight.hello.version,
        chain=chain,
        wire_bytes=flight.size,
    )


def install_tls_server(network: SimulatedNetwork, domain: str,
                       config: TLSServerConfig, *,
                       port: int = DEFAULT_PORT) -> TLSServer:
    """Bind a TLS server for ``domain`` on the simulated network."""
    server = TLSServer(config)
    network.get_or_add_host(domain).bind(port, server)
    return server
