"""HTTP server software models (Table 4 / Table 10).

Each :class:`HTTPServerProfile` captures one server's certificate
configuration interface: the file layout it accepts (SF1 = separate
leaf + ca-bundle files, SF2 = single fullchain, SF3 = PFX container),
which checks it runs at deployment time, and whether it offers
automated certificate management.  The checks are behavioural — Azure's
duplicate-leaf check really removes the defect in the generated corpus,
exactly as Table 10's zero Azure duplicate-leaf count shows.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class HTTPServerProfile:
    """Deployment characteristics of one HTTP server product.

    ``cert_fields`` is ``"SF1"``, ``"SF2"`` or ``"SF3"`` (Table 4);
    ``base_share`` is the product's share among *all* deployments (used
    when no defect conditions the assignment).
    """

    name: str
    display_name: str
    automatic_management: bool
    cert_fields: str
    private_key_match_check: bool
    duplicate_leaf_check: bool
    duplicate_intermediate_check: bool
    base_share: float

    def __post_init__(self) -> None:
        if self.cert_fields not in ("SF1", "SF2", "SF3"):
            raise ValueError(f"bad cert_fields {self.cert_fields!r}")


APACHE = HTTPServerProfile(
    name="apache",
    display_name="Apache",
    automatic_management=True,
    # Pre-2.4.8 Apache uses SF1 (SSLCertificateFile + SSLCertificateChainFile);
    # the generator samples the legacy layout for a fraction of deployments.
    cert_fields="SF2",
    private_key_match_check=True,
    duplicate_leaf_check=False,
    duplicate_intermediate_check=False,
    base_share=0.31,
)

NGINX = HTTPServerProfile(
    name="nginx",
    display_name="Nginx",
    automatic_management=True,
    cert_fields="SF2",
    private_key_match_check=True,
    duplicate_leaf_check=False,
    duplicate_intermediate_check=False,
    base_share=0.35,
)

AZURE = HTTPServerProfile(
    name="azure",
    display_name="Microsoft-Azure-Application-Gateway",
    automatic_management=True,
    cert_fields="SF3",
    private_key_match_check=True,
    duplicate_leaf_check=True,
    duplicate_intermediate_check=False,
    base_share=0.03,
)

CLOUDFLARE = HTTPServerProfile(
    name="cloudflare",
    display_name="cloudflare",
    automatic_management=True,
    cert_fields="SF2",
    private_key_match_check=True,
    duplicate_leaf_check=False,
    duplicate_intermediate_check=False,
    base_share=0.11,
)

IIS = HTTPServerProfile(
    name="iis",
    display_name="IIS",
    automatic_management=False,
    cert_fields="SF3",
    private_key_match_check=True,
    duplicate_leaf_check=True,
    duplicate_intermediate_check=False,
    base_share=0.05,
)

AWS_ELB = HTTPServerProfile(
    name="aws-elb",
    display_name="AWS ELB",
    automatic_management=True,
    cert_fields="SF1",
    private_key_match_check=True,
    duplicate_leaf_check=False,
    duplicate_intermediate_check=False,
    base_share=0.04,
)

OTHER_SERVER = HTTPServerProfile(
    name="other",
    display_name="Other",
    automatic_management=False,
    cert_fields="SF2",
    private_key_match_check=True,
    duplicate_leaf_check=False,
    duplicate_intermediate_check=False,
    base_share=0.11,
)

ALL_SERVERS: tuple[HTTPServerProfile, ...] = (
    APACHE, NGINX, AZURE, CLOUDFLARE, IIS, AWS_ELB, OTHER_SERVER,
)

#: Table 4's columns (the servers the paper manually probed).
TABLE4_SERVERS: tuple[HTTPServerProfile, ...] = (
    APACHE, NGINX, AZURE, IIS, AWS_ELB,
)

_BY_NAME = {server.name: server for server in ALL_SERVERS}


def server_by_name(name: str) -> HTTPServerProfile:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"no HTTP server profile named {name!r}") from None


#: Conditional server-assignment weights per defect class, calibrated
#: from Table 10's rows (shares among chains showing that defect).
#: Azure's zero duplicate-leaf weight *is* its upload check.
DEFECT_SERVER_WEIGHTS: dict[str, dict[str, float]] = {
    "duplicate_leaf": {
        "apache": 0.633, "nginx": 0.166, "azure": 0.0, "cloudflare": 0.032,
        "iis": 0.017, "aws-elb": 0.061, "other": 0.091,
    },
    "duplicate_intermediate": {
        "apache": 0.166, "nginx": 0.524, "azure": 0.014, "cloudflare": 0.042,
        "iis": 0.054, "aws-elb": 0.014, "other": 0.185,
    },
    "duplicate_root": {
        "apache": 0.164, "nginx": 0.473, "azure": 0.020, "cloudflare": 0.020,
        "iis": 0.129, "aws-elb": 0.047, "other": 0.148,
    },
    "irrelevant": {
        "apache": 0.530, "nginx": 0.328, "azure": 0.009, "cloudflare": 0.034,
        "iis": 0.015, "aws-elb": 0.014, "other": 0.070,
    },
    "multiple_paths": {
        "apache": 0.325, "nginx": 0.504, "azure": 0.0, "cloudflare": 0.026,
        "iis": 0.026, "aws-elb": 0.009, "other": 0.111,
    },
    "reversed": {
        "apache": 0.231, "nginx": 0.382, "azure": 0.142, "cloudflare": 0.032,
        "iis": 0.040, "aws-elb": 0.026, "other": 0.145,
    },
    "incomplete": {
        "apache": 0.396, "nginx": 0.404, "azure": 0.022, "cloudflare": 0.030,
        "iis": 0.030, "aws-elb": 0.018, "other": 0.101,
    },
}


def _cumulative(weights: dict[str, float]) -> tuple[list[str], list[float]]:
    """The names and the cumulative weights rng.choices(weights=...)
    would accumulate on every call."""
    return list(weights), list(itertools.accumulate(weights.values()))


_BASE_SERVER_CHOICES = _cumulative(
    {server.name: server.base_share for server in ALL_SERVERS}
)
_SERVER_CHOICES = {
    defect: _cumulative(weights)
    for defect, weights in DEFECT_SERVER_WEIGHTS.items()
}


def assign_server(rng: random.Random, defect: str | None) -> HTTPServerProfile:
    """Sample the HTTP server for a deployment.

    ``defect`` selects a Table 10-calibrated conditional distribution
    (the paper's causal reading: certain interfaces produce certain
    defects); ``None`` uses the base market shares.
    """
    names, cum_weights = _SERVER_CHOICES.get(defect, _BASE_SERVER_CHOICES)
    return server_by_name(rng.choices(names, cum_weights=cum_weights)[0])


def table4_rows() -> list[dict[str, str]]:
    """Regenerate Table 4 as row dictionaries."""
    rows = []
    for server in TABLE4_SERVERS:
        fields = server.cert_fields
        if server.name == "apache":
            fields = "<2.4.8 SF1 / >=2.4.8 SF2"
        rows.append(
            {
                "server": server.display_name,
                "automatic_certificate_management": _mark(
                    server.automatic_management
                ),
                "supported_certificate_fields": fields,
                "private_key_and_leaf_certificate_matching_check": _mark(
                    server.private_key_match_check
                ),
                "duplicate_leaf_certificate_check": _mark(
                    server.duplicate_leaf_check
                ),
                "duplicate_intermediate_root_certificate_check": _mark(
                    server.duplicate_intermediate_check
                ),
            }
        )
    return rows


def _mark(flag: bool) -> str:
    return "yes" if flag else "no"
