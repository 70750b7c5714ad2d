"""A ZGrab2-style TLS scanner over the simulated network.

Reproduces the paper's collection procedure (Section 3.1): from each
vantage point, attempt a TLS handshake with every target domain,
record the certificate list verbatim, and keep the transfer rate under
500 KB/s via a token bucket.  Scanning both TLS 1.2 and TLS 1.3
separately is supported so the 98.8%-identical comparison can be
re-run.

Resilience (docs/ROBUSTNESS.md): transient failures are retried under
a :class:`RetryPolicy` — exponential backoff with deterministic
jitter, capped by an optional per-scan simulated-time budget — and a
per-vantage :class:`CircuitBreaker` trips after a run of consecutive
``unreachable`` scans so a dead vantage degrades fast instead of
timing out domain by domain.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from collections.abc import Iterable

from repro import obs
from repro.errors import (
    ConnectionResetError_,
    NetworkError,
    TLSHandshakeError,
)
from repro.net.ratelimit import TokenBucket
from repro.net.simnet import SimClock, SimulatedNetwork
from repro.net.tls import TLS12, TLS13, perform_handshake
from repro.x509 import Certificate

#: The paper's self-imposed bandwidth cap.
RATE_LIMIT_BYTES_PER_SECOND = 500 * 1024

_log = obs.get_logger("net.scanner")


class ScanErrorKind(enum.StrEnum):
    """Failure taxonomy for one scan attempt.

    A ``StrEnum`` so historical call sites comparing against the bare
    strings (``record.error == "unreachable"``) keep working, while
    metrics and logs get a closed label set.
    """

    UNREACHABLE = "unreachable"
    HANDSHAKE_FAILED = "handshake_failed"
    #: the peer reset the connection mid-handshake (transient; retried)
    RESET = "reset"
    #: not attempted: the vantage's circuit breaker was open
    SKIPPED = "skipped"


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How one scanner retries transient failures.

    ``delay`` for retry *n* (1-based) is
    ``min(base_delay * multiplier**(n-1), max_delay)`` scaled by a
    deterministic jitter factor in ``[1, 1 + jitter)`` derived from
    ``(vantage, domain, n)`` — reproducible across runs and independent
    of scan order, so enabling retries never makes a campaign
    non-deterministic.

    ``scan_budget`` bounds the simulated seconds one ``scan_domain``
    may spend across retries: a retry whose backoff would exceed the
    budget is abandoned (counted in ``scan.retry.budget_exhausted``).
    """

    retries: int = 0
    base_delay: float = 5.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.1
    scan_budget: float | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")
        if not 0.0 <= self.jitter:
            raise ValueError("jitter must be non-negative")
        if self.scan_budget is not None and self.scan_budget <= 0:
            raise ValueError("scan_budget must be positive")

    def delay(self, attempt: int, *, vantage: str, domain: str) -> float:
        """Backoff before retry ``attempt`` (1-based) of one scan."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(
            self.base_delay * self.multiplier ** (attempt - 1),
            self.max_delay,
        )
        if self.jitter:
            # random.Random(str) hashes the seed string, so the factor
            # depends only on (vantage, domain, attempt) — not on how
            # many scans ran before this one.
            fraction = random.Random(
                f"{vantage}|{domain}|{attempt}"
            ).random()
            delay *= 1.0 + self.jitter * fraction
        return delay


class CircuitBreaker:
    """Trips after ``threshold`` consecutive unreachable scans.

    Models the standard scanning discipline for a dying vantage point:
    once a run of consecutive scans cannot reach *any* host, the
    vantage itself is presumed down, and further scans are skipped
    (recorded as ``ScanErrorKind.SKIPPED``) instead of burning a full
    retry budget per domain.  Every ``probe_interval`` simulated
    seconds one probe scan is let through; a successful probe closes
    the breaker.

    A scan that reaches the host but fails the handshake (or is reset
    mid-exchange) counts as *contact* — it closes the breaker, because
    the vantage evidently has connectivity.
    """

    def __init__(self, clock: SimClock, vantage: str, *,
                 threshold: int = 10,
                 probe_interval: float = 300.0) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        self.clock = clock
        self.vantage = vantage
        self.threshold = threshold
        self.probe_interval = probe_interval
        self._consecutive = 0
        self._open_since: float | None = None
        self._next_probe = 0.0
        self.trip_count = 0
        self.skipped = 0

    @property
    def tripped(self) -> bool:
        """True while the breaker is open (the vantage is degraded)."""
        return self._open_since is not None

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive

    def allow(self) -> bool:
        """May the next scan proceed?  Counts skips while open."""
        if self._open_since is None:
            return True
        now = self.clock.now()
        if now >= self._next_probe:
            # Half-open: let one probe through, then wait again.
            self._next_probe = now + self.probe_interval
            obs.get_metrics().counter(
                "breaker.probes", vantage=self.vantage
            ).inc()
            return True
        self.skipped += 1
        obs.get_metrics().counter(
            "breaker.skipped", vantage=self.vantage
        ).inc()
        return False

    def record(self, *, reachable: bool) -> None:
        """Feed one finished scan's outcome into the breaker."""
        if reachable:
            if self._open_since is not None:
                obs.get_metrics().counter(
                    "breaker.closed", vantage=self.vantage
                ).inc()
                _log.info("breaker.closed", vantage=self.vantage)
            self._open_since = None
            self._consecutive = 0
            return
        self._consecutive += 1
        if (self._open_since is None
                and self._consecutive >= self.threshold):
            self._open_since = self.clock.now()
            self._next_probe = self._open_since + self.probe_interval
            self.trip_count += 1
            obs.get_metrics().counter(
                "breaker.tripped", vantage=self.vantage
            ).inc()
            _log.warning("breaker.tripped", vantage=self.vantage,
                         consecutive=self._consecutive)


@dataclass(frozen=True, slots=True)
class ScanRecord:
    """One scan attempt from one vantage point.

    ``chain`` is empty when the scan failed; ``error`` then holds a
    :class:`ScanErrorKind` (which compares equal to its string value,
    ``"unreachable"`` / ``"handshake_failed"``).
    """

    domain: str
    vantage: str
    success: bool
    tls_version: str | None
    chain: tuple[Certificate, ...]
    error: ScanErrorKind | None
    wire_bytes: int
    timestamp: float
    #: handshake attempts this scan made (0 when skipped by a breaker)
    attempts: int = 1
    #: simulated seconds the whole scan took — handshake latency,
    #: retry backoff, and rate-limit waits included (0.0 when skipped)
    duration: float = 0.0
    #: the chain's dedup identity (ordered certificate fingerprints),
    #: computed once at record creation so the campaign's union merge
    #: never re-hashes a chain per vantage (empty for failed scans)
    chain_key: tuple[bytes, ...] = ()


class Scanner:
    """Scans domains from a single vantage point, rate limited.

    Parameters
    ----------
    network / vantage:
        Where the scanner runs.
    rate_limit:
        Bytes per simulated second; defaults to the paper's 500 KB/s.
    retries / retry_cooldown:
        Legacy spelling of a constant-delay, jitter-free
        :class:`RetryPolicy`; ignored when ``retry_policy`` is given.
    retry_policy:
        Full backoff control (exponential delay, deterministic jitter,
        per-scan budget).
    breaker:
        An optional per-vantage :class:`CircuitBreaker`; when open,
        scans return ``ScanErrorKind.SKIPPED`` records without
        touching the network.
    """

    def __init__(
        self,
        network: SimulatedNetwork,
        vantage: str,
        *,
        rate_limit: float = RATE_LIMIT_BYTES_PER_SECOND,
        retries: int = 0,
        retry_cooldown: float = 5.0,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.network = network
        self.vantage = vantage
        self.bucket = TokenBucket(
            network.clock, rate=rate_limit, burst=rate_limit
        )
        if retry_policy is None:
            # The PR-1 behaviour: a fixed cooldown between attempts —
            # the ethics section's "avoid multiple consecutive scans
            # on a single server".
            retry_policy = RetryPolicy(
                retries=retries, base_delay=retry_cooldown,
                multiplier=1.0, jitter=0.0,
            )
        self.retry_policy = retry_policy
        self.retries = retry_policy.retries
        self.retry_cooldown = retry_policy.base_delay
        self.breaker = breaker

    def scan_domain(self, domain: str, *,
                    versions: tuple[str, ...] = (TLS12,),
                    memo: dict | None = None) -> ScanRecord:
        """One scan (with optional retries); never raises — failures
        become records.

        ``memo`` is the decoded-block memo of
        :func:`~repro.net.tls.perform_handshake`.
        """
        metrics = obs.get_metrics()
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            return self._failure(domain, ScanErrorKind.SKIPPED, attempts=0)
        policy = self.retry_policy
        clock = self.network.clock
        # Durations are journaled and must be byte-identical however
        # the sweep is chunked, so they come from the exact integer-
        # nanosecond clock, not float subtraction of absolute times.
        started_ns = clock.now_ns()
        result = None
        failure_reason = ScanErrorKind.UNREACHABLE
        attempts = 0
        with obs.get_tracer().span("scan.handshake", domain=domain,
                                   vantage=self.vantage):
            while True:
                attempts += 1
                # Counted per *attempt* so the registry invariant
                # scan.attempts == scan.error + scan.success holds
                # whether or not retries fire.
                metrics.counter("scan.attempts", vantage=self.vantage).inc()
                try:
                    result = perform_handshake(
                        self.network, self.vantage, domain,
                        versions=versions, memo=memo,
                    )
                    break
                except TLSHandshakeError:
                    # Protocol-level refusals are deterministic: retrying
                    # a version mismatch cannot help.
                    self._count_error(ScanErrorKind.HANDSHAKE_FAILED)
                    if breaker is not None:
                        breaker.record(reachable=True)
                    return self._failure(
                        domain, ScanErrorKind.HANDSHAKE_FAILED,
                        attempts=attempts,
                        duration=(clock.now_ns() - started_ns) / 1e9,
                    )
                except ConnectionResetError_:
                    failure_reason = ScanErrorKind.RESET
                    self._count_error(ScanErrorKind.RESET)
                except NetworkError:
                    failure_reason = ScanErrorKind.UNREACHABLE
                    self._count_error(ScanErrorKind.UNREACHABLE)
                retry = attempts  # next retry's 1-based index
                if retry > policy.retries:
                    break
                delay = policy.delay(retry, vantage=self.vantage,
                                     domain=domain)
                if (policy.scan_budget is not None
                        and (clock.now_ns() - started_ns) / 1e9 + delay
                        > policy.scan_budget):
                    metrics.counter("scan.retry.budget_exhausted",
                                    vantage=self.vantage).inc()
                    break
                metrics.counter("scan.retry.attempts",
                                vantage=self.vantage).inc()
                metrics.counter("scan.retry.backoff_seconds",
                                vantage=self.vantage).inc(delay)
                clock.advance(delay)
        if result is None:
            if breaker is not None:
                # A mid-handshake reset is contact: the host answered.
                breaker.record(
                    reachable=failure_reason is ScanErrorKind.RESET
                )
            return self._failure(
                domain, failure_reason, attempts=attempts,
                duration=(clock.now_ns() - started_ns) / 1e9,
            )
        if breaker is not None:
            breaker.record(reachable=True)
        waited = self.bucket.consume(result.wire_bytes)
        metrics.counter("scan.success", vantage=self.vantage).inc()
        metrics.histogram(
            "scan.wire_bytes", vantage=self.vantage
        ).observe(result.wire_bytes)
        metrics.counter("scan.ratelimit_wait_seconds",
                        vantage=self.vantage).inc(waited)
        return ScanRecord(
            domain=domain,
            vantage=self.vantage,
            success=True,
            tls_version=result.version,
            chain=result.chain,
            error=None,
            wire_bytes=result.wire_bytes,
            timestamp=self.network.clock.now(),
            attempts=attempts,
            duration=(self.network.clock.now_ns() - started_ns) / 1e9,
            chain_key=tuple(c.fingerprint for c in result.chain),
        )

    def _count_error(self, reason: ScanErrorKind) -> None:
        """One failed *attempt* (retried ones included), by vantage.

        ``scan.failure`` below counts failed *scans* — a scan whose last
        retry succeeds contributes attempts here but no failure there.
        Both carry ``vantage`` + ``kind`` so per-vantage error
        breakdowns read straight out of the registry.
        """
        obs.get_metrics().counter(
            "scan.error", vantage=self.vantage, kind=reason.value
        ).inc()

    def _failure(self, domain: str, reason: ScanErrorKind, *,
                 attempts: int = 1, duration: float = 0.0) -> ScanRecord:
        obs.get_metrics().counter(
            "scan.failure", vantage=self.vantage, kind=reason.value
        ).inc()
        _log.debug("scan.failed", domain=domain, vantage=self.vantage,
                   kind=reason.value)
        return ScanRecord(
            domain=domain,
            vantage=self.vantage,
            success=False,
            tls_version=None,
            chain=(),
            error=reason,
            wire_bytes=0,
            timestamp=self.network.clock.now(),
            attempts=attempts,
            duration=duration,
        )

    def scan(self, domains: Iterable[str], *,
             versions: tuple[str, ...] = (TLS12,),
             progress=None, memo: dict | None = None) -> list[ScanRecord]:
        """Scan every domain once, in order, under the rate limit.

        ``progress``, if given, is called after every domain with the
        finished :class:`ScanRecord` — the hook the CLI's live progress
        line and the campaign journal hang off.  ``memo`` is the
        decoded-block memo of :func:`~repro.net.tls.perform_handshake`;
        sweeps that share one decode each distinct served certificate
        once.
        """
        records = []
        for domain in domains:
            record = self.scan_domain(domain, versions=versions, memo=memo)
            records.append(record)
            if progress is not None:
                progress(record)
        return records

    def scan_both_versions(
        self, domains: Iterable[str]
    ) -> dict[str, tuple[ScanRecord, ScanRecord]]:
        """Per-domain (TLS 1.2 record, TLS 1.3 record) pairs.

        Used by the collection-methodology check: how many domains
        return identical chains under both versions.
        """
        results: dict[str, tuple[ScanRecord, ScanRecord]] = {}
        for domain in domains:
            tls12 = self.scan_domain(domain, versions=(TLS12,))
            tls13 = self.scan_domain(domain, versions=(TLS13,))
            results[domain] = (tls12, tls13)
        return results
