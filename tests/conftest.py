from __future__ import annotations

import pytest
from hypothesis import settings

import fixtures

#: CI runs the suite with ``--hypothesis-profile=ci``: four times the
#: examples of each property (see ``fixtures.examples``)
settings.register_profile("ci", max_examples=400)


@pytest.fixture(scope="session")
def octology_pdf() -> bytes:
    return fixtures.octology_pdf()


@pytest.fixture(scope="session")
def minimal_pdf() -> bytes:
    return fixtures.minimal_pdf()


@pytest.fixture(scope="session")
def preprint_pdf() -> bytes:
    return fixtures.preprint_pdf()


@pytest.fixture(scope="session")
def pubmed_html() -> bytes:
    return fixtures.pubmed_html()
