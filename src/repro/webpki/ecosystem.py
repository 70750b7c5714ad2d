"""The synthetic Web PKI ecosystem: CAs, domains, deployments, network.

:class:`Ecosystem.generate` builds the whole measured world from one
seed: CA instances with Table 6/11-calibrated behaviour, a ranked
domain population, per-domain deployments with cause-driven defects,
the Table 8 cohorts (legacy AIA-only roots, store-specific anchors),
and the paper's case-study topologies (Figures 2–4).  ``install``
projects everything onto a :class:`~repro.net.simnet.SimulatedNetwork`
for end-to-end scans; ``observations`` short-circuits the network for
fast analysis runs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from repro.ca import (
    ALL_CAS,
    CertificateAuthority,
    Hierarchy,
    build_cross_signed_pair,
    build_hierarchy,
    next_serial,
)
from repro.ca.profiles import CAProfile, OTHER_CAS, profile_by_name
from repro.errors import EcosystemError
from repro.net.http import install_http_server, publish_certificate
from repro.net.simnet import SimulatedNetwork
from repro.net.tls import TLS12, TLS13, TLSServerConfig, install_tls_server
from repro.obs import phase_scope
from repro.trust.aia import StaticAIARepository
from repro.trust.rootstore import RootStoreRegistry, STORE_NAMES
from repro.webpki.deployment import (
    CAInstance,
    ChainMaterializer,
    DomainDeployment,
)
from repro.webpki.httpservers import assign_server
from repro.webpki.misconfig import (
    DefectPlan,
    LEGACY_ROOT_RATE,
    VANTAGE_DIFFERENT_CHAIN_RATE,
    VANTAGE_UNREACHABLE_RATE,
    VERSION_DIFFERENT_CHAIN_RATE,
    sample_defect_plan,
)
from repro.webpki.tranco import TrancoList
from repro.x509 import (
    Certificate,
    CertificateBuilder,
    KeyUsage,
    Name,
    SubjectKeyIdentifier,
    Validity,
    generate_keypair,
    utc,
)

#: Vantage point names, mirroring the paper's two VPS locations.
VANTAGE_US = "us"
VANTAGE_AU = "au"

#: Table 8 micro-cohort rates (chains per domain; paper counts / 906,336).
COHORT_MS_APPLE_ONLY_RATE = 66 / 906_336
COHORT_NO_MICROSOFT_RATE = 5 / 906_336
COHORT_NO_APPLE_RATE = 4 / 906_336


@dataclass
class EcosystemConfig:
    """Knobs for one generated ecosystem."""

    n_domains: int = 5_000
    seed: int = 42
    now: datetime = field(default_factory=lambda: utc(2024, 3, 15))
    include_root_rate: float = 0.08
    legacy_share_of_other: float = 0.585  # yields ~24.9% of all domains
    with_case_studies: bool = True


@dataclass
class Ecosystem:
    """The generated world, ready for analysis or network installation."""

    config: EcosystemConfig
    tranco: TrancoList
    registry: RootStoreRegistry
    aia_repo: StaticAIARepository
    instances: list[CAInstance]
    deployments: list[DomainDeployment]
    materializer: ChainMaterializer

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    @classmethod
    def generate(cls, config: EcosystemConfig | None = None) -> "Ecosystem":
        from repro.ca.authority import serial_context

        with phase_scope("generate"), serial_context(0x1000):
            return cls._generate(config)

    @classmethod
    def _generate(cls, config: EcosystemConfig | None = None) -> "Ecosystem":
        config = config or EcosystemConfig()
        rng = random.Random(config.seed)
        registry = RootStoreRegistry()
        aia_repo = StaticAIARepository()

        instances = _build_instances(config, rng)
        for instance in instances:
            registry.add_to(instance.anchor, instance.store_membership)
            _publish_instance_aia(instance, aia_repo)

        materializer = ChainMaterializer(
            rng,
            instances,
            now=config.now,
            include_root_rate=config.include_root_rate,
        )

        tranco = TrancoList(size=config.n_domains, seed=config.seed)
        # what rng.choices(weights=...) would accumulate on every call
        cum_weights = list(itertools.accumulate(i.weight for i in instances))
        by_name = {i.name: i for i in instances}

        deployments: list[DomainDeployment] = []
        for entry in tranco:
            instance = rng.choices(instances, cum_weights=cum_weights)[0]
            if entry.name.endswith(".gov.tw") and rng.random() < 0.5:
                instance = by_name["taiwan-ca"]
            plan = sample_defect_plan(
                rng, instance.profile.name,
                supports_cross_sign=instance.supports_cross_sign,
            )
            server = assign_server(rng, plan.primary_defect)
            chain, includes_root = materializer.materialize(
                instance, entry.name, plan
            )
            automated = (
                instance.profile.automatic_management
                and rng.random() < instance.profile.automation_adoption
            )
            deployment = DomainDeployment(
                domain=entry.name,
                rank=entry.rank,
                ca_instance=instance.name,
                ca_profile=instance.profile.name,
                server=server.name,
                chain=chain,
                plan=plan,
                automated=automated,
                includes_root=includes_root,
                legacy=instance.legacy,
            )
            _sample_serving_quirks(deployment, instance, materializer, rng)
            deployments.append(deployment)

        # Per-domain wrong-AIA endpoints surfaced during materialisation.
        for uri, cert in materializer.wrong_aia_paths.items():
            aia_repo.publish(uri, cert)
        # Dead-URI endpoints: the repository refuses the fetch (a dead
        # *server*), keeping the class distinct from a not-found path.
        for uri in materializer.dead_aia_uris:
            aia_repo.mark_unreachable(uri)

        ecosystem = cls(
            config=config,
            tranco=tranco,
            registry=registry,
            aia_repo=aia_repo,
            instances=instances,
            deployments=deployments,
            materializer=materializer,
        )
        if config.with_case_studies:
            ecosystem._append_case_studies(rng)
        return ecosystem

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def observations(self) -> list[tuple[str, list[Certificate]]]:
        """The union dataset: one (domain, chain) per unique served chain.

        Mirrors the paper's merge of the two vantage points: a domain
        serving different chains contributes each distinct chain once,
        and a domain unreachable from both vantage points contributes
        nothing.
        """
        merged: list[tuple[str, list[Certificate]]] = []
        for deployment in self.deployments:
            if deployment.unreachable_from >= {VANTAGE_US, VANTAGE_AU}:
                continue
            merged.append((deployment.domain, deployment.chain))
            if deployment.alt_vantage_chain is not None:
                merged.append((deployment.domain, deployment.alt_vantage_chain))
        return merged

    def deployment_by_domain(self, domain: str) -> DomainDeployment:
        for deployment in self.deployments:
            if deployment.domain == domain:
                return deployment
        raise EcosystemError(f"no deployment for {domain!r}")

    def case_studies(self) -> dict[str, DomainDeployment]:
        return {
            d.case_study: d for d in self.deployments if d.case_study is not None
        }

    # ------------------------------------------------------------------
    # Network projection
    # ------------------------------------------------------------------

    def install(self) -> SimulatedNetwork:
        """Project the ecosystem onto a fresh simulated network.

        Installs one TLS server per reachable deployment (with
        per-vantage reachability and per-version chains), plus one HTTP
        host per AIA base serving every published certificate.
        """
        network = SimulatedNetwork(seed=self.config.seed)
        network.add_vantage(VANTAGE_US, base_rtt=0.04)
        network.add_vantage(VANTAGE_AU, base_rtt=0.12)

        for deployment in self.deployments:
            chains = {TLS12: deployment.chain}
            if deployment.alt_version_chain is not None:
                chains[TLS13] = deployment.alt_version_chain
            vantage_chains = {}
            if deployment.alt_vantage_chain is not None:
                vantage_chains[VANTAGE_AU] = deployment.alt_vantage_chain
            install_tls_server(
                network,
                deployment.domain,
                TLSServerConfig(
                    default_chain=deployment.chain,
                    chains=chains,
                    vantage_chains=vantage_chains,
                ),
            )
            for vantage in deployment.unreachable_from:
                network.block(vantage, deployment.domain)

        self._install_aia_hosts(network)
        return network

    def _install_aia_hosts(self, network: SimulatedNetwork) -> None:
        from urllib.parse import urlparse

        servers: dict[str, object] = {}
        for uri, cert in self.aia_repo.items():
            parsed = urlparse(uri)
            host = parsed.hostname or ""
            if host not in servers:
                servers[host] = install_http_server(network, host)
            publish_certificate(servers[host], parsed.path, cert)

    # ------------------------------------------------------------------
    # Case studies (Figures 2–4 and the mot.gov.ps single case)
    # ------------------------------------------------------------------

    def _append_case_studies(self, rng: random.Random) -> None:
        rank = len(self.tranco) + 1
        for name, builder in (
            ("fig3_long_list", _case_long_list),
            ("fig4_backtracking", _case_backtracking),
            ("fig2b_stale_leaves", _case_stale_leaves),
            ("fig2d_foreign_chain", _case_foreign_chain),
            ("ns3_block_duplicates", _case_block_duplicates),
            ("mot_incorrect_leaf", _case_incorrect_leaf),
        ):
            domain, chain, anchors = builder(self)
            for anchor, membership in anchors:
                if not self.registry.membership(anchor):
                    self.registry.add_to(anchor, membership)
            self.deployments.append(
                DomainDeployment(
                    domain=domain,
                    rank=rank,
                    ca_instance="case-study",
                    ca_profile="other",
                    server="apache",
                    chain=chain,
                    plan=sample_defect_plan(rng, "other", supports_cross_sign=False),
                    automated=False,
                    includes_root=any(c.is_self_signed for c in chain),
                    legacy=False,
                    case_study=name,
                )
            )
            rank += 1

def _sample_serving_quirks(
    deployment: DomainDeployment,
    instance: CAInstance,
    materializer: ChainMaterializer,
    rng: random.Random,
) -> None:
    """Vantage/version serving differences and reachability (§3.1)."""
    if rng.random() < VERSION_DIFFERENT_CHAIN_RATE:
        deployment.alt_version_chain = _reissue_leaf_variant(
            deployment, instance, materializer
        )
    if rng.random() < VANTAGE_DIFFERENT_CHAIN_RATE:
        deployment.alt_vantage_chain = _reissue_leaf_variant(
            deployment, instance, materializer
        )
    unreachable: set[str] = set()
    if rng.random() < VANTAGE_UNREACHABLE_RATE:
        unreachable.add(VANTAGE_US)
    if rng.random() < VANTAGE_UNREACHABLE_RATE:
        unreachable.add(VANTAGE_AU)
    deployment.unreachable_from = frozenset(unreachable)


def _reissue_leaf_variant(
    deployment: DomainDeployment,
    instance: CAInstance,
    materializer: ChainMaterializer,
) -> list[Certificate]:
    """Same structure, freshly issued leaf — a front-end disagreement."""
    if not deployment.chain:
        return []
    from repro.webpki.deployment import leaf_domain

    issuing = instance.hierarchy.issuing_ca
    new_leaf = issuing.issue_leaf(
        leaf_domain(deployment.chain[0]),
        not_before=materializer.now - timedelta(days=10),
        days=180,
        key_seed=materializer._key_seed(),
    )
    return [new_leaf, *deployment.chain[1:]]


# ---------------------------------------------------------------------------
# CA instance construction
# ---------------------------------------------------------------------------

def _build_instances(config: EcosystemConfig,
                     rng: random.Random) -> list[CAInstance]:
    instances: list[CAInstance] = []
    for profile in ALL_CAS:
        if profile.name == "other":
            instances.extend(_build_other_instances(config, profile))
            continue
        instances.append(_build_profiled_instance(profile))
    return instances


def _build_profiled_instance(profile: CAProfile) -> CAInstance:
    aia_base = f"http://aia.{profile.name}.example"
    if profile.cross_signed:
        hierarchy, _legacy, _cross = build_cross_signed_pair(
            profile.display_name,
            aia_base=aia_base,
            key_seed_prefix=f"ca/{profile.name}",
        )
    else:
        hierarchy = build_hierarchy(
            profile.display_name,
            depth=profile.hierarchy_depth,
            aia_base=aia_base,
            key_seed_prefix=f"ca/{profile.name}",
        )
    return CAInstance(
        name=profile.name,
        profile=profile,
        hierarchy=hierarchy,
        weight=profile.market_weight,
        aia_base=aia_base,
    )


def _build_other_instances(config: EcosystemConfig,
                           profile: CAProfile) -> list[CAInstance]:
    """The long tail: modern instances, the legacy cohort, micro-cohorts."""
    total = profile.market_weight
    legacy_weight = total * config.legacy_share_of_other
    cohort_a = COHORT_MS_APPLE_ONLY_RATE * 906_336
    cohort_b = COHORT_NO_MICROSOFT_RATE * 906_336
    cohort_c = COHORT_NO_APPLE_RATE * 906_336
    modern_weight = total - legacy_weight - cohort_a - cohort_b - cohort_c

    instances = [
        CAInstance(
            name="other-modern",
            profile=profile,
            hierarchy=build_hierarchy(
                "Commodity Trust",
                depth=1,
                aia_base="http://aia.other-modern.example",
                key_seed_prefix="ca/other-modern",
            ),
            weight=modern_weight * 0.4,
            aia_base="http://aia.other-modern.example",
        ),
        CAInstance(
            name="other-deep",
            profile=profile,
            hierarchy=build_hierarchy(
                "Deep Trust Services",
                depth=2,
                aia_base="http://aia.other-deep.example",
                key_seed_prefix="ca/other-deep",
            ),
            weight=modern_weight * 0.6,
            aia_base="http://aia.other-deep.example",
        ),
    ]
    for index in (1, 2):
        instances.append(
            _build_legacy_instance(f"other-legacy-{index}", profile,
                                   legacy_weight / 2)
        )
    instances.append(_build_store_cohort(
        "cohort-ms-apple", profile, cohort_a, ("microsoft", "apple")))
    instances.append(_build_store_cohort(
        "cohort-no-ms", profile, cohort_b, ("mozilla", "chrome", "apple")))
    instances.append(_build_store_cohort(
        "cohort-no-apple", profile, cohort_c, ("mozilla", "chrome", "microsoft")))
    return instances


def _build_legacy_instance(name: str, profile: CAProfile,
                           weight: float) -> CAInstance:
    """A CA whose store anchor was re-issued under a new DN.

    The *deployed* chains reference the old root (old DN, no keyid AKID
    on intermediates), so the anchor can be identified neither by AKID
    nor by issuer-DN lookup — only an AIA download of the old root
    (same key as the store anchor) completes the chain.  This is the
    mechanism behind Table 8's "AIA Not Supported" column.
    """
    aia_base = f"http://aia.{name}.example"
    org = f"Heritage Trust {name[-1]}"
    old_root = CertificateAuthority(
        Name.build(organization=org, common_name=f"{org} Root CA 1999"),
        validity=Validity(utc(1999, 1, 1), utc(2039, 1, 1)),
        aia_base=aia_base,
        key_seed=f"ca/{name}/root".encode(),
    )
    # The root-adjacent intermediate carries no keyid AKID (legacy
    # issuer+serial form) — the link only AIA can resolve; the issuing
    # CA below it is conventional.
    upper = old_root.issue_intermediate(
        Name.build(organization=org, common_name=f"{org} Issuing CA"),
        include_akid=False,
        key_seed=f"ca/{name}/int".encode(),
        not_before=utc(2015, 1, 1),
        days=9_000,
    )
    issuing = upper.issue_intermediate(
        Name.build(organization=org, common_name=f"{org} TLS CA"),
        key_seed=f"ca/{name}/tls".encode(),
        not_before=utc(2018, 1, 1),
        days=8_000,
    )
    hierarchy = Hierarchy([old_root, upper, issuing])
    # The store anchor: same key, rebranded DN, self-signed.
    anchor = (
        CertificateBuilder()
        .subject_name(Name.build(organization=org, common_name=f"{org} Global Root"))
        .issuer_name(Name.build(organization=org, common_name=f"{org} Global Root"))
        .serial_number(next_serial())
        .validity(Validity(utc(2010, 1, 1), utc(2040, 1, 1)))
        .public_key(old_root.keypair.public_key)
        .ca()
        .key_usage(KeyUsage.for_ca())
        .add_extension(
            SubjectKeyIdentifier(old_root.keypair.public_key.key_id)
        )
        .sign(old_root.keypair)
    )
    return CAInstance(
        name=name,
        profile=profile,
        hierarchy=hierarchy,
        weight=weight,
        legacy=True,
        aia_base=aia_base,
        trust_anchor=anchor,
    )


def _build_store_cohort(name: str, profile: CAProfile, weight: float,
                        membership: tuple[str, ...]) -> CAInstance:
    """A small CA trusted by only some root programs, with no AIA.

    Chains omit the root and cannot be completed via AIA, so clients
    using an excluding store see them as incomplete — Table 8's
    "AIA Supported" deltas.
    """
    root = CertificateAuthority(
        Name.build(organization=name, common_name=f"{name} Root"),
        validity=Validity(utc(2012, 1, 1), utc(2037, 1, 1)),
        key_seed=f"ca/{name}/root".encode(),
    )
    intermediate = root.issue_intermediate(
        Name.build(organization=name, common_name=f"{name} CA 1"),
        key_seed=f"ca/{name}/int".encode(),
        not_before=utc(2016, 1, 1),
        days=7_000,
    )
    return CAInstance(
        name=name,
        profile=profile,
        hierarchy=Hierarchy([root, intermediate]),
        weight=weight,
        store_membership=membership,
        aia_base=None,
        intermediates_have_aia=False,
    )


def _publish_instance_aia(instance: CAInstance,
                          repo: StaticAIARepository) -> None:
    for authority in instance.hierarchy.authorities:
        if authority.aia_uri is not None:
            repo.publish(authority.aia_uri, authority.certificate)


# ---------------------------------------------------------------------------
# Case-study chains (fixed topologies from the paper's figures)
# ---------------------------------------------------------------------------

def _case_hierarchy(eco: Ecosystem, org: str, depth: int,
                    *, trusted: bool = True) -> Hierarchy:
    hierarchy = build_hierarchy(org, depth=depth,
                                key_seed_prefix=f"case/{org}")
    if trusted:
        eco.registry.add_everywhere(hierarchy.root.certificate)
    return hierarchy


def _case_long_list(eco: Ecosystem) -> tuple[str, list[Certificate], list]:
    """Figure 3: a 17-certificate list whose real path is 8->1->16->0.

    GnuTLS rejects the list outright (>16 certificates); clients that
    reorder can still find the four-certificate path.
    """
    domain = "assiste6.serpro.example"
    hierarchy = _case_hierarchy(eco, "Serpro Case", 2)
    root, i2, i1 = hierarchy.authorities
    leaf = i1.issue_leaf(domain, not_before=utc(2024, 1, 1), days=365,
                         key_seed=b"case/serpro/leaf")
    filler_h = build_hierarchy("Serpro Filler", depth=1,
                               key_seed_prefix="case/serpro-filler")
    filler: list[Certificate] = []
    for index in range(12):
        filler.append(
            filler_h.issue_leaf(
                f"filler{index}.serpro.example",
                not_before=utc(2023, 1, 1), days=365,
                key_seed=f"case/serpro/filler{index}".encode(),
            )
        )
    chain: list[Certificate] = [leaf]            # position 0
    chain.append(i2.certificate)                 # position 1
    chain.extend(filler[:6])                     # positions 2..7
    chain.append(root.certificate)               # position 8
    chain.extend(filler[6:12])                   # positions 9..14
    chain.append(filler_h.root.certificate)      # position 15
    chain.append(i1.certificate)                 # position 16
    return domain, chain, []


def _case_backtracking(eco: Ecosystem) -> tuple[str, list[Certificate], list]:
    """Figure 4: a cross-signed CA whose self-signed root is untrusted.

    Candidates for the intermediate's issuer are the untrusted
    self-signed government root (listed first) and a cross-sign under a
    trusted root (listed later): non-backtracking clients die on the
    first; CryptoAPI recovers.
    """
    domain = "moex.example.gov.tw"
    trusted_h = _case_hierarchy(eco, "TW Trusted Case", 0)
    gov_key = generate_keypair("simulated", seed=b"case/moex/gov")
    gov_name = Name.build(organization="Gov CA", common_name="Gov Root CA")
    # The government root is *newer* than the cross-sign, so VP2 clients
    # rank it first and must backtrack after finding it untrusted.
    gov_root = CertificateAuthority(
        gov_name,
        keypair=gov_key,
        validity=Validity(utc(2022, 1, 1), utc(2036, 1, 1)),
    )
    # NOT added to any root store: the paper's untrusted node 1.
    cross = trusted_h.root.cross_sign(gov_root, not_before=utc(2021, 1, 1),
                                      days=3650)
    issuing = gov_root.issue_intermediate(
        Name.build(organization="Gov CA", common_name="Gov Issuing CA"),
        key_seed=b"case/moex/int",
        not_before=utc(2021, 1, 1),
        days=3650,
    )
    leaf = issuing.issue_leaf(domain, not_before=utc(2024, 1, 1), days=365,
                              key_seed=b"case/moex/leaf")
    chain = [
        leaf,                      # 0
        gov_root.certificate,      # 1 — untrusted self-signed root
        issuing.certificate,       # 2
        cross,                     # 3 — Gov Root cross-signed by trusted
        trusted_h.root.certificate,  # 4 — trusted root
    ]
    return domain, chain, []


def _case_stale_leaves(eco: Ecosystem) -> tuple[str, list[Certificate], list]:
    """Figure 2b: five leaves from the same CA, newest first."""
    domain = "webcanny.example"
    hierarchy = _case_hierarchy(eco, "Webcanny Case", 1)
    issuing = hierarchy.issuing_ca
    leaves = [
        issuing.issue_leaf(
            domain,
            not_before=utc(2024 - age, 1, 1),
            days=120 + 60 * age,
            key_seed=f"case/webcanny/{age}".encode(),
        )
        for age in range(5)
    ]
    chain = [*leaves, issuing.certificate]
    return domain, chain, []


def _case_foreign_chain(eco: Ecosystem) -> tuple[str, list[Certificate], list]:
    """Figure 2d: a real chain followed by someone else's, with a duplicate."""
    domain = "archives.example.gov.tw"
    primary = _case_hierarchy(eco, "ePKI Case", 2)
    foreign = _case_hierarchy(eco, "TWCA Case", 1)
    leaf = primary.issue_leaf(domain, not_before=utc(2024, 1, 1), days=365,
                              key_seed=b"case/archives/leaf")
    foreign_int = foreign.intermediates[0].certificate
    chain = [
        leaf,                                       # 0
        primary.intermediates[1].certificate,       # 1
        primary.intermediates[0].certificate,       # 2
        primary.root.certificate,                   # 3
        foreign_int,                                # 4
        foreign.root.certificate,                   # 5
        foreign_int,                                # 6 — duplicate of 4
    ]
    return domain, chain, []


def _case_block_duplicates(eco: Ecosystem) -> tuple[str, list[Certificate], list]:
    """The ns3.link shape: intermediate+root block repeated to 29 certs."""
    domain = "ns3.example"
    hierarchy = _case_hierarchy(eco, "NS3 Case", 1)
    leaf = hierarchy.issue_leaf(domain, not_before=utc(2024, 1, 1), days=365,
                                key_seed=b"case/ns3/leaf")
    block = [hierarchy.intermediates[0].certificate, hierarchy.root.certificate]
    chain = [leaf, *block]
    while len(chain) < 29:
        chain.extend(block)
    return domain, chain[:29], []


def _case_incorrect_leaf(eco: Ecosystem) -> tuple[str, list[Certificate], list]:
    """The mot.gov.ps single case: appliance cert first, host cert second."""
    domain = "mot.example.ps"
    appliance_key = generate_keypair("simulated", seed=b"case/mot/appliance")
    appliance = (
        CertificateBuilder()
        .subject_name(Name.build(common_name="SophosApplianceCertificate_4af1"))
        .issuer_name(Name.build(common_name="SophosApplianceCertificate_4af1"))
        .serial_number(next_serial())
        .validity(Validity(utc(2023, 1, 1), utc(2033, 1, 1)))
        .public_key(appliance_key.public_key)
        .end_entity()
        .sign(appliance_key)
    )
    host_key = generate_keypair("simulated", seed=b"case/mot/host")
    host_cert = (
        CertificateBuilder()
        .subject_name(Name.build(common_name=f"www.{domain}"))
        .issuer_name(Name.build(common_name=f"www.{domain}"))
        .serial_number(next_serial())
        .validity(Validity(utc(2023, 1, 1), utc(2033, 1, 1)))
        .public_key(host_key.public_key)
        .end_entity()
        .sign(host_key)
    )
    return domain, [appliance, host_cert], []
