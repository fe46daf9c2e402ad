"""NLP autoclassification pipeline (SS II-C): end-to-end behaviour.

The full paper-scale validation (all dimensions, all classifiers) lives in
``benchmarks/bench_nlp_validation.py``; here we exercise the mechanics on
the manual sample with the default (fast) configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings import Word2Vec
from repro.embeddings.word2vec import _BLOCK
from repro.errors import NotFittedError
from repro.parallel import ArtifactCache
from repro.pipeline import AutoClassifier, ClassifierKind, validate_pipeline
from repro.pipeline.scaling import _SVM_PARAMS, _W2V_PARAMS, run_pipeline
from repro.pipeline.validation import validate_all_dimensions


@pytest.fixture(scope="module")
def texts_and_labels(manual_sample):
    return manual_sample.texts(), manual_sample.labels("symptom")


class TestAutoClassifier:
    def test_fit_predict_roundtrip(self, texts_and_labels):
        texts, labels = texts_and_labels
        model = AutoClassifier(seed=0).fit(texts[:100], labels[:100])
        predictions = model.predict(texts[100:])
        assert len(predictions) == len(texts) - 100
        assert set(predictions) <= set(labels)

    def test_training_accuracy_high(self, texts_and_labels):
        texts, labels = texts_and_labels
        model = AutoClassifier(seed=0).fit(texts, labels)
        predictions = model.predict(texts)
        accuracy = sum(1 for t, p in zip(labels, predictions) if t == p) / len(labels)
        assert accuracy > 0.9

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            AutoClassifier().predict(["text"])

    def test_embed_shape(self, texts_and_labels):
        texts, labels = texts_and_labels
        model = AutoClassifier(seed=0).fit(texts[:60], labels[:60])
        matrix = model.embed(texts[:5])
        assert matrix.shape[0] == 5
        assert np.isfinite(matrix).all()

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            AutoClassifier().fit(["a"], ["x", "y"])

    def test_pca_variant_runs(self, texts_and_labels):
        texts, labels = texts_and_labels
        model = AutoClassifier(seed=0, pca_dim=16, use_embeddings=False)
        model.fit(texts[:80], labels[:80])
        assert len(model.predict(texts[80:90])) == 10


class TestValidation:
    def test_bug_type_accuracy_matches_paper(self, manual_sample):
        report = validate_pipeline(manual_sample, "bug_type", seed=0)
        assert report.accuracy >= 0.90  # paper: 96%

    def test_symptom_accuracy_matches_paper(self, manual_sample):
        report = validate_pipeline(manual_sample, "symptom", seed=0)
        assert report.accuracy >= 0.80  # paper: 86%

    def test_fix_prediction_is_hard(self, manual_sample):
        """The paper could not find any algorithm that predicts fixes."""
        report = validate_pipeline(manual_sample, "fix", seed=0)
        assert report.accuracy < 0.65

    def test_report_summary_format(self, manual_sample):
        report = validate_pipeline(manual_sample, "bug_type", seed=0)
        assert "bug_type" in report.summary()
        assert "accuracy" in report.summary()

    def test_confusion_matrix_consistent(self, manual_sample):
        report = validate_pipeline(manual_sample, "symptom", seed=0)
        total = sum(sum(row) for row in report.confusion)
        assert total == report.n_test

    def test_validate_all_dimensions_keys(self, manual_sample):
        reports = validate_all_dimensions(
            manual_sample, dimensions=("bug_type", "symptom")
        )
        assert set(reports) == {"bug_type", "symptom"}

    def test_decision_tree_kind_works(self, manual_sample):
        report = validate_pipeline(
            manual_sample, "bug_type", kind=ClassifierKind.DECISION_TREE, seed=0
        )
        assert report.accuracy >= 0.75


class TestValidationCacheKey:
    def test_trainer_params_match_the_trainer(self):
        classifier, word2vec = AutoClassifier(), Word2Vec()
        assert _W2V_PARAMS == {
            "trainer": "blocked-sgns",
            "block": _BLOCK,
            "vector_size": classifier.embedding_dim,
            "window": word2vec.window,
            "negative": word2vec.negative,
            "epochs": classifier.word2vec_epochs,
        }

    def test_report_cached_without_trainer_params_is_not_served(self, tmp_path):
        """A report written under the pre-blocked-trainer key must miss."""
        cache = ArtifactCache(tmp_path)
        stale_params = {
            "seed": 2020,
            "split_seed": 0,
            "dimension": "bug_type",
            "classifier": ClassifierKind.SVM,
            "svm": _SVM_PARAMS,
        }
        cache.put("validation-svm", stale_params, "stale report")
        result = run_pipeline(
            cache=cache, dimensions=("bug_type",), n_topics=4, nmf_restarts=2
        )
        assert not result.stage("validate:bug_type").cache_hit
        assert result.reports["bug_type"] != "stale report"
        assert cache.get("validation-svm", stale_params) == "stale report"
