"""Skip-gram Word2Vec with negative sampling (Mikolov et al., 2013).

Pure-numpy implementation: for each ``(center, context)`` pair drawn from a
sliding window, the model pushes the center vector toward the context output
vector and away from ``negative`` sampled noise words.  Noise words are drawn
from the unigram distribution raised to the 3/4 power, as in the original
paper.  Training is blocked SGD: each step scores ``_BLOCK`` pairs at once
and adds every pair's gradient, so a row hit twice in a step (a repeated
negative, or a negative equal to the context) takes both updates.  Training
is deterministic for a fixed seed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import NotFittedError
from repro.textmining.tokenizer import sliding_windows
from repro.textmining.vocabulary import Vocabulary


#: Pairs per SGD step.  Every pair in a block reads the weights as they stood
#: at the start of the block, and their updates land together.
_BLOCK = 128


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clipped for numerical stability at large |x|.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _scatter_sub(matrix: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """``matrix[rows] -= updates``, summing the updates of repeated rows.

    A stable sort groups equal rows in a fixed order, so the sums (and the
    trained weights) are deterministic.
    """
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    matrix[rows[starts]] -= np.add.reduceat(updates[order], starts, axis=0)


class Word2Vec:
    """Skip-gram with negative sampling.

    Parameters
    ----------
    vector_size:
        Embedding dimensionality.
    window:
        Max distance between center and context token.
    negative:
        Number of noise samples per positive pair.
    epochs:
        Passes over the pair stream.
    learning_rate:
        Initial SGD step size, linearly decayed to 10% across training.
    min_count:
        Tokens rarer than this are dropped from the vocabulary.
    seed:
        Seed for init and noise sampling.
    """

    def __init__(
        self,
        *,
        vector_size: int = 64,
        window: int = 4,
        negative: int = 5,
        epochs: int = 5,
        learning_rate: float = 0.025,
        min_count: int = 2,
        seed: int = 0,
    ) -> None:
        if vector_size < 1:
            raise ValueError("vector_size must be >= 1")
        self.vector_size = vector_size
        self.window = window
        self.negative = negative
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.min_count = min_count
        self.seed = seed
        self.vocabulary_: Vocabulary | None = None
        self.vectors_: np.ndarray | None = None  # input vectors (the embeddings)
        self._output: np.ndarray | None = None  # context vectors

    def fit(self, documents: Sequence[Sequence[str]]) -> "Word2Vec":
        """Train on tokenized ``documents``."""
        vocab = Vocabulary(documents, min_count=self.min_count)
        if len(vocab) == 0:
            raise ValueError("empty vocabulary; lower min_count or add documents")
        rng = np.random.default_rng(self.seed)
        n = len(vocab)
        vectors = (rng.random((n, self.vector_size)) - 0.5) / self.vector_size
        output = np.zeros((n, self.vector_size))

        # Noise distribution: unigram^(3/4).
        counts = np.array(vocab.counts, dtype=np.float64)
        noise = counts**0.75
        noise /= noise.sum()

        # Pre-encode documents once.
        encoded = [vocab.encode(doc) for doc in documents]
        pairs: list[tuple[int, int]] = []
        for doc in encoded:
            for center, context in sliding_windows(doc, self.window):
                for ctx in context:
                    pairs.append((center, ctx))
        if not pairs:
            raise ValueError("no training pairs; documents too short for window")
        pair_array = np.array(pairs, dtype=np.int64)

        total_steps = max(self.epochs * len(pair_array), 1)
        k = 1 + self.negative
        labels = np.zeros(k)
        labels[0] = 1.0
        step = 0
        for _ in range(self.epochs):
            order = rng.permutation(len(pair_array))
            negatives = rng.choice(
                n, size=(len(pair_array), self.negative), p=noise
            )
            for start in range(0, len(order), _BLOCK):
                block = pair_array[order[start : start + _BLOCK]]
                size = len(block)
                centers = block[:, 0]
                targets = np.concatenate(
                    (block[:, 1:], negatives[start : start + size]), axis=1
                )
                lr = self.learning_rate * np.maximum(
                    0.1, 1.0 - (step + np.arange(size)) / total_steps
                )
                step += size
                v = vectors[centers]
                out = output[targets]
                scores = _sigmoid(np.einsum("bkd,bd->bk", out, v))
                gradient = scores - labels
                scaled = lr[:, None] * gradient
                _scatter_sub(
                    output,
                    targets.ravel(),
                    (scaled[:, :, None] * v[:, None, :]).reshape(size * k, -1),
                )
                _scatter_sub(
                    vectors,
                    centers,
                    lr[:, None] * np.einsum("bk,bkd->bd", gradient, out),
                )
        self.vocabulary_ = vocab
        self.vectors_ = vectors
        self._output = output
        return self

    def __contains__(self, token: str) -> bool:
        return self.vocabulary_ is not None and token in self.vocabulary_

    def vector(self, token: str) -> np.ndarray:
        """Embedding for ``token``; raises KeyError if out of vocabulary."""
        if self.vocabulary_ is None or self.vectors_ is None:
            raise NotFittedError("Word2Vec.vector called before fit")
        return self.vectors_[self.vocabulary_.index(token)]

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity between two in-vocabulary tokens."""
        va, vb = self.vector(a), self.vector(b)
        denom = np.linalg.norm(va) * np.linalg.norm(vb)
        if denom == 0:
            return 0.0
        return float(va @ vb / denom)

    def most_similar(self, token: str, *, topn: int = 10) -> list[tuple[str, float]]:
        """The ``topn`` most cosine-similar vocabulary tokens to ``token``."""
        if self.vocabulary_ is None or self.vectors_ is None:
            raise NotFittedError("Word2Vec.most_similar called before fit")
        query = self.vector(token)
        norms = np.linalg.norm(self.vectors_, axis=1)
        qn = np.linalg.norm(query)
        denom = norms * qn
        denom[denom == 0] = 1.0
        sims = (self.vectors_ @ query) / denom
        order = np.argsort(sims)[::-1]
        results: list[tuple[str, float]] = []
        for idx in order:
            candidate = self.vocabulary_.token(int(idx))
            if candidate == token:
                continue
            results.append((candidate, float(sims[idx])))
            if len(results) >= topn:
                break
        return results
