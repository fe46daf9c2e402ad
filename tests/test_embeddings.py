"""Word2Vec skip-gram training and document vectors."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import DocumentVectorizer, Word2Vec
from repro.embeddings import word2vec as word2vec_module
from repro.errors import NotFittedError
from repro.textmining.tokenizer import sliding_windows
from repro.textmining.vocabulary import Vocabulary

#: A tiny corpus with two clearly separated topics: animals vs networking.
CORPUS = [
    ["cat", "dog", "pet", "fur"],
    ["dog", "cat", "pet", "paw"],
    ["pet", "cat", "fur", "paw"],
    ["dog", "pet", "paw", "fur"],
    ["switch", "flow", "packet", "port"],
    ["flow", "switch", "port", "packet"],
    ["packet", "port", "switch", "flow"],
    ["port", "flow", "packet", "switch"],
] * 12


@pytest.fixture(scope="module")
def model() -> Word2Vec:
    return Word2Vec(vector_size=24, window=3, epochs=4, min_count=1, seed=0).fit(
        CORPUS
    )


class TestWord2Vec:
    def test_vector_shape(self, model):
        assert model.vector("cat").shape == (24,)

    def test_topic_words_cluster(self, model):
        """Intra-topic similarity must exceed cross-topic similarity."""
        intra = model.similarity("cat", "dog")
        cross = model.similarity("cat", "switch")
        assert intra > cross

    def test_most_similar_prefers_same_topic(self, model):
        neighbours = [w for w, _ in model.most_similar("flow", topn=3)]
        assert set(neighbours) <= {"switch", "packet", "port"}

    def test_most_similar_excludes_query(self, model):
        assert "flow" not in [w for w, _ in model.most_similar("flow")]

    def test_contains(self, model):
        assert "cat" in model
        assert "unseen" not in model

    def test_oov_vector_raises(self, model):
        with pytest.raises(KeyError):
            model.vector("unseen")

    def test_deterministic_for_seed(self):
        a = Word2Vec(vector_size=8, epochs=1, min_count=1, seed=5).fit(CORPUS)
        b = Word2Vec(vector_size=8, epochs=1, min_count=1, seed=5).fit(CORPUS)
        assert np.array_equal(a.vectors_, b.vectors_)
        assert np.array_equal(a._output, b._output)

    def test_min_count_prunes(self):
        docs = CORPUS + [["rareword"]]
        model = Word2Vec(vector_size=8, epochs=1, min_count=2, seed=0).fit(docs)
        assert "rareword" not in model

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            Word2Vec().vector("cat")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            Word2Vec(min_count=1).fit([[]])


def _per_pair_reference(model: Word2Vec, documents) -> tuple[np.ndarray, np.ndarray]:
    """Plain skip-gram SGD, one pair per step, as ``fit`` draws it.

    ``np.add.at`` accumulates the update of every target, so a negative that
    repeats, or equals the context word, moves its output row once per hit.
    """
    vocab = Vocabulary(documents, min_count=model.min_count)
    rng = np.random.default_rng(model.seed)
    n, dim = len(vocab), model.vector_size
    vectors = (rng.random((n, dim)) - 0.5) / dim
    output = np.zeros((n, dim))
    noise = np.array(vocab.counts, dtype=np.float64) ** 0.75
    noise /= noise.sum()
    pairs = np.array([
        (center, ctx)
        for doc in documents
        for center, context in sliding_windows(vocab.encode(doc), model.window)
        for ctx in context
    ])
    total = model.epochs * len(pairs)
    step = 0
    for _ in range(model.epochs):
        order = rng.permutation(len(pairs))
        negatives = rng.choice(n, size=(len(pairs), model.negative), p=noise)
        for row, i in enumerate(order):
            center, ctx = pairs[i]
            lr = model.learning_rate * max(0.1, 1.0 - step / total)
            step += 1
            targets = np.concatenate(([ctx], negatives[row]))
            labels = np.zeros(len(targets))
            labels[0] = 1.0
            v = vectors[center].copy()
            out = output[targets]
            gradient = word2vec_module._sigmoid(out @ v) - labels
            np.add.at(output, targets, -lr * gradient[:, None] * v)
            vectors[center] -= lr * (gradient[:, None] * out).sum(axis=0)
    return vectors, output


_WORDS = ["flow", "rule", "switch", "port", "crash", "race"]


class TestBlockedTrainer:
    @settings(max_examples=40, deadline=None)
    @given(
        documents=st.lists(
            st.lists(st.sampled_from(_WORDS), min_size=2, max_size=7),
            min_size=1, max_size=5,
        ),
        seed=st.integers(0, 2**16),
        vector_size=st.integers(1, 8),
        window=st.integers(1, 3),
        negative=st.integers(1, 4),
        epochs=st.integers(1, 2),
    )
    def test_block_of_one_matches_per_pair_reference(
        self, documents, seed, vector_size, window, negative, epochs
    ):
        model = Word2Vec(
            vector_size=vector_size, window=window, negative=negative,
            epochs=epochs, min_count=1, seed=seed,
        )
        expected_vectors, expected_output = _per_pair_reference(model, documents)
        with mock.patch.object(word2vec_module, "_BLOCK", 1):
            model.fit(documents)
        # Duplicate targets are summed in another order than ``np.add.at``
        # adds them, so weights that cancel to near zero differ in the last
        # bits; every weight here is below 1 in magnitude, so an absolute
        # floor of a few float64 ulps at 1.0 absorbs that.
        np.testing.assert_allclose(
            model.vectors_, expected_vectors, rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            model._output, expected_output, rtol=1e-12, atol=1e-15
        )

    def test_duplicate_targets_each_apply_their_gradient(self):
        """One word, three negatives: every target of both pairs is row 0.

        Both pairs fall in one block and read the zero output matrix, so each
        target scores 0.5, its gradient is ``0.5 - label``, and the center row
        does not move.  Per pair the four targets sum to a gradient of 1.0;
        a scatter that keeps only the last write would leave 0.5.
        """
        model = Word2Vec(
            vector_size=4, window=1, negative=3, epochs=1, min_count=1, seed=7
        ).fit([["flow", "flow"]])
        initial = (np.random.default_rng(7).random((1, 4)) - 0.5) / 4
        rates = model.learning_rate * np.array([1.0, 0.5])
        np.testing.assert_array_equal(model.vectors_, initial)
        np.testing.assert_allclose(
            model._output, -rates.sum() * initial, rtol=1e-15, atol=0
        )


class TestDocumentVectorizer:
    def test_requires_fitted_model(self):
        with pytest.raises(NotFittedError):
            DocumentVectorizer(Word2Vec())

    def test_doc_vector_shape(self, model):
        docvec = DocumentVectorizer(model)
        matrix = docvec.transform([["cat", "dog"], ["switch"]])
        assert matrix.shape == (2, 24)

    def test_oov_only_doc_is_zero(self, model):
        docvec = DocumentVectorizer(model)
        assert np.allclose(docvec.transform_one(["nothing", "known"]), 0.0)

    def test_topic_docs_separate(self, model):
        docvec = DocumentVectorizer(model)
        animal = docvec.transform_one(["cat", "dog", "pet"])
        network = docvec.transform_one(["switch", "flow", "port"])
        animal2 = docvec.transform_one(["fur", "paw", "pet"])

        def cosine(u, v):
            return u @ v / (np.linalg.norm(u) * np.linalg.norm(v))

        assert cosine(animal, animal2) > cosine(animal, network)

    def test_unweighted_average_is_mean(self, model):
        docvec = DocumentVectorizer(model, idf_weighting=False)
        vec = docvec.transform_one(["cat", "dog"])
        expected = (model.vector("cat") + model.vector("dog")) / 2
        assert np.allclose(vec, expected)
