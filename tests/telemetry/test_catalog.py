"""Catalog guard: the metric families the robustness view reads are
registered by the instrumented modules, and every registered family is
documented in README's metric catalog table — so a renamed family fails
here instead of silently blanking ``repro report``."""

import importlib
import re
from pathlib import Path

import pytest

from repro.telemetry import METRICS
from repro.telemetry.report import ROBUSTNESS_FAMILIES

README = Path(__file__).resolve().parents[2] / "README.md"

#: every module that binds metric handles at import time
INSTRUMENTED = (
    "repro.ns.solver",
    "repro.solvers.krylov",
    "repro.solvers.multigrid",
    "repro.solvers.chebyshev",
    "repro.robustness.recovery",
    "repro.robustness.checkpointing",
    "repro.lung.simulation",
    "repro.parallel.runtime",
    "repro.core.plans",
)


@pytest.fixture(scope="module")
def catalog():
    for name in INSTRUMENTED:
        importlib.import_module(name)
    # tests register demo families on the global registry too: keep the
    # library's own
    return {row["name"]: row for row in METRICS.catalog()
            if row["source"].startswith("repro.")}


def readme_families() -> set[str]:
    names: set[str] = set()
    for line in README.read_text().splitlines():
        if line.startswith("| `repro_"):
            names.update(re.findall(r"`(repro_\w+)`", line.split("|")[1]))
    return names


def test_robustness_view_reads_registered_families(catalog):
    missing = [f for f in ROBUSTNESS_FAMILIES if f not in catalog]
    assert not missing, f"the robustness view reads unregistered {missing}"


def test_every_registered_family_is_in_readme(catalog):
    missing = sorted(set(catalog) - readme_families())
    assert not missing, f"README's metric catalog lacks {missing}"


def test_instrumented_modules_cover_every_source(catalog):
    """A newly instrumented module must join INSTRUMENTED, or its
    families escape the README check."""
    assert {row["source"] for row in catalog.values()} <= set(INSTRUMENTED)
