"""Config identity: every journaled plane's resume digest, pinned.

A journal records the digest of the configuration that wrote it, and
resume refuses any other.  All four digests go through
``repro.recovery.checkpoint.canonical_digest``; pinning the default
configs' values keeps journals written by earlier versions resumable.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.faultinjection.campaign import FaultCampaign
from repro.fuzzing import FuzzConfig
from repro.pipeline.autoclassifier import ClassifierKind
from repro.pipeline.scaling import pipeline_config_digest
from repro.resilience.policies import ResilienceConfig
from repro.stream import IngestConfig


def test_fuzz_config_digest_is_pinned():
    assert FuzzConfig().digest() == (
        "a080748c9cecba21ee2cfe9a148703b597662bba7eb564c5362ca9943c45b644"
    )


def test_ingest_config_digest_is_pinned():
    assert IngestConfig().digest() == (
        "0a3e5003c7dbecdf80c6b01c4dbfefb6ce18d35220ae15e4c654dd31eafeb8c0"
    )


def test_pipeline_config_digest_is_pinned():
    digest = pipeline_config_digest(
        seed=2020, dimensions=("bug_type", "symptom", "fix"),
        kind=ClassifierKind.SVM, n_topics=8, nmf_restarts=4, split_seed=0,
    )
    assert digest == (
        "bdac71b66fae403a36d399e1027685eb7e39a38a23ca70cad066e5ff65330198"
    )


def test_fault_campaign_config_digests_are_pinned():
    campaign = FaultCampaign()
    assert campaign.config_digest(arm="bare") == (
        "b38231d4ed0293c3ff425b73aa10b19f4e8c8bd5b68ae492c1df50838c5c72ca"
    )
    resilience = repr(ResilienceConfig.default())
    assert campaign.config_digest(arm="ab", extra={"resilience": resilience}) == (
        "0ac097438d5f6ed083119e7ec9d90a683929404ddca04e62909c6a3026adf222"
    )


@pytest.mark.parametrize("config", [
    FuzzConfig(),
    FuzzConfig(flows=3, topology="star", horizon=12.5, hardened=True),
    IngestConfig(),
    IngestConfig(outage_rate=0.3, learn=False, hash_bits=8),
])
def test_to_dict_is_every_field_in_declaration_order(config):
    names = [field.name for field in dataclasses.fields(config)]
    assert list(config.to_dict()) == names
    assert type(config)(**config.to_dict()) == config
