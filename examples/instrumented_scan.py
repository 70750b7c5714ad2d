#!/usr/bin/env python3
"""An instrumented scan campaign: metrics, phases, spans.

Runs the same collect → merge → analyse pipeline as
``scan_campaign.py``, but with the :mod:`repro.obs` layer enabled:

* per-vantage scan counters and the wire-bytes histogram,
* Tables 3/5/7 outcome counters straight from the metrics registry,
* the wall time of each pipeline phase (``generate``, ``collect``,
  ``analyze``) from the ``phase.*`` histograms,
* the span tree under those same phase names (exportable as a Chrome
  trace).

Run: ``python examples/instrumented_scan.py [n_domains] [seed]``
"""

import sys

from repro import obs
from repro.measurement import Campaign
from repro.obs.report import phase_stats
from repro.webpki import Ecosystem, EcosystemConfig


def main(n_domains: int = 1000, seed: int = 833) -> None:
    with obs.instrumented() as (registry, tracer):
        obs.catalogue.preregister(registry)

        print(f"generating a {n_domains}-domain ecosystem (seed {seed})...")
        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=n_domains, seed=seed)
        )
        campaign = Campaign(ecosystem)
        collection = campaign.collect()
        campaign.analyze(collection.observations)

        print("\n=== metrics ===")
        print(obs.render_metrics_table(registry.snapshot()))

        # the rows `report --metrics` shows under "Phase resources"
        print("\n=== phase timing ===")
        chains = registry.total("campaign.chains_analyzed")
        for phase in phase_stats(registry.snapshot()):
            rate = ""
            if phase.phase == "analyze" and phase.wall_seconds > 0:
                rate = f"  ({chains / phase.wall_seconds:,.0f} chains/s)"
            print(f"  {phase.phase:<24} x{phase.count}  "
                  f"{phase.wall_seconds * 1e3:8.1f} ms{rate}")

        # Chrome trace-event export: load this in chrome://tracing.
        trace_json = tracer.to_json(indent=None)
        print(f"\ntrace: {len(tracer.to_chrome_trace()):,} events, "
              f"{len(trace_json):,} bytes of Chrome trace JSON")
        print(f"  top-level spans: "
              f"{', '.join(root.name for root in tracer.roots())}")


if __name__ == "__main__":
    obs.configure(level="INFO")  # structured key=value logs on stderr
    main(*(int(arg) for arg in sys.argv[1:]))
