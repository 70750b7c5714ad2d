"""Smoke tests for the runnable examples.

Each example's ``main`` runs at a tiny scale so documentation code
cannot rot: if an API changes under an example, these fail.
"""

import importlib
import re
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(autouse=True)
def _examples_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(EXAMPLES_DIR))
    yield
    for name in ("quickstart", "scan_campaign", "client_capabilities",
                 "differential_testing", "diagnose_deployment",
                 "addtrust_outage", "paper_comparison",
                 "instrumented_scan"):
        sys.modules.pop(name, None)


def _run(name: str, *args, **kwargs):
    module = importlib.import_module(name)
    return module.main(*args, **kwargs)


def test_quickstart(capsys):
    _run("quickstart")
    out = capsys.readouterr().out
    assert "MbedTLS" in out and "Chrome" in out
    assert "reversed_sequences" in out


def test_scan_campaign_small(capsys):
    _run("scan_campaign", 120, 9)
    out = capsys.readouterr().out
    assert "Table 3" in out and "Table 7" in out
    assert "non-compliant" in out


def test_differential_testing_small(capsys):
    _run("differential_testing", 120)
    out = capsys.readouterr().out
    assert "libraries:" in out
    assert "Figure 4" in out


def test_diagnose_deployment_demo(capsys):
    _run("diagnose_deployment", [])
    out = capsys.readouterr().out
    assert "predicted client behaviour" in out
    assert "recommendations" in out


def test_addtrust_outage(capsys):
    _run("addtrust_outage")
    out = capsys.readouterr().out
    assert "day before" in out
    assert "at risk" in out.lower()


def test_paper_comparison_small(capsys):
    _run("paper_comparison", 150, 9)
    out = capsys.readouterr().out
    assert "Table 9" in out
    assert "Section 5.2" in out


def test_instrumented_scan_small(capsys):
    from repro import obs

    _run("instrumented_scan", 120, 9)
    out = capsys.readouterr().out
    assert "scan.attempts (counter)" in out
    for phase in ("generate", "collect", "analyze"):
        assert re.search(rf"^  {phase} +x1 ", out, re.M), phase
    assert "chains/s" in out
    assert "Chrome trace JSON" in out
    assert "top-level spans: generate, collect, analyze" in out
    assert not obs.enabled()  # the example restores the null layer
