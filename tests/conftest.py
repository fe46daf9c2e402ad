"""Shared fixtures: expensive artifacts are built once per session."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.codebase import release_series
from repro.corpus import CorpusGenerator, StudyCorpus
from repro.corpus.dataset import BugDataset

# ``--hypothesis-profile=ci`` makes example choice a function of the test
# alone, so a CI failure reproduces on every rerun; local runs keep
# exploring fresh random examples.
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def corpus() -> StudyCorpus:
    """The full seeded study corpus (795 critical bugs, both trackers)."""
    return CorpusGenerator(seed=2020).generate()


@pytest.fixture(scope="session")
def dataset(corpus: StudyCorpus) -> BugDataset:
    return corpus.dataset


@pytest.fixture(scope="session")
def manual_sample(corpus: StudyCorpus) -> BugDataset:
    """The paper's 150-bug manual-analysis sample."""
    return corpus.manual_sample


@pytest.fixture(scope="session")
def onos_models():
    """Synthetic ONOS code models for every release (Fig 8 substrate)."""
    return release_series()
