"""Multinomial Naive Bayes text classifier, from scratch.

The Classifier summary type categorizes annotations into user-defined
classes ("Behavior", "Disease", "Anatomy", "Other" for ornithological
databases; "FunctionPrediction", "Provenance", "Comment" for biological
ones).  The paper cites the standard multinomial Naive Bayes formulation
of Manning, Raghavan & Schütze [12]; this module implements it directly:

* training estimates class priors and per-class term likelihoods with
  Laplace (add-one) smoothing;
* prediction scores a document by summed log-probabilities;
* :meth:`NaiveBayesClassifier.partial_fit` supports incremental training,
  so a live system can keep improving the model from curated examples
  without a full retrain.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from repro.text.tokenize import Tokenizer


class NaiveBayesClassifier:
    """Multinomial Naive Bayes with Laplace smoothing.

    Parameters
    ----------
    labels:
        The closed set of class labels, in the order zoom-in indexes them.
        Documents are always assigned one of these labels.
    tokenizer:
        Tokenizer applied to training and prediction text.
    smoothing:
        Laplace smoothing constant (alpha); 1.0 is standard add-one.
    """

    def __init__(
        self,
        labels: Sequence[str],
        tokenizer: Tokenizer | None = None,
        smoothing: float = 1.0,
    ) -> None:
        if not labels:
            raise ValueError("labels must be non-empty")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels: {list(labels)}")
        if smoothing <= 0:
            raise ValueError(f"smoothing must be positive, got {smoothing}")
        self.labels: tuple[str, ...] = tuple(labels)
        self._label_set = frozenset(labels)
        self._tokenizer = tokenizer or Tokenizer()
        self._smoothing = smoothing
        self._doc_counts: Counter[str] = Counter()
        self._term_counts: dict[str, Counter[str]] = defaultdict(Counter)
        self._total_terms: Counter[str] = Counter()
        self._vocabulary: set[str] = set()
        self._total_docs = 0
        # Scoring cache: log prior per label and log likelihood per
        # (label, token), filled as tokens are scored and dropped by
        # partial_fit, the only method that changes the counts.
        self._log_priors: dict[str, float] | None = None
        self._log_likelihoods: dict[str, dict[str, float]] = {}

    # -- training --------------------------------------------------------

    def fit(self, examples: Iterable[tuple[str, str]]) -> "NaiveBayesClassifier":
        """Train from ``(text, label)`` pairs; returns ``self``."""
        for text, label in examples:
            self.partial_fit(text, label)
        return self

    def partial_fit(self, text: str, label: str) -> None:
        """Fold one labelled example into the model."""
        if label not in self._label_set:
            raise ValueError(f"unknown label {label!r}; expected one of {self.labels}")
        tokens = self._tokenizer.tokens(text)
        self._doc_counts[label] += 1
        self._total_docs += 1
        self._term_counts[label].update(tokens)
        self._total_terms[label] += len(tokens)
        self._vocabulary.update(tokens)
        self._log_priors = None
        self._log_likelihoods = {}

    @property
    def is_trained(self) -> bool:
        """True once at least one example has been seen."""
        return self._total_docs > 0

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct terms seen during training."""
        return len(self._vocabulary)

    # -- prediction ------------------------------------------------------

    def log_scores(self, text: str) -> dict[str, float]:
        """Per-label unnormalized log posterior for ``text``.

        On an untrained model every label scores equally (uniform prior,
        no likelihood evidence), so prediction degrades to the first label
        rather than raising — an untrained classifier instance must still
        be linkable to a relation.

        The log prior of each label and the log likelihood of each
        (label, token) pair are computed once per model state and cached;
        a score adds the same floats in the same order as computing them
        afresh, so it is unchanged by the cache.
        """
        tokens = self._tokenizer.tokens(text)
        log_priors = self._log_priors
        if log_priors is None:
            log_priors = self._log_priors = {
                label: math.log(
                    (self._doc_counts.get(label, 0) + self._smoothing)
                    / (self._total_docs + self._smoothing * len(self.labels))
                )
                for label in self.labels
            }
        scores: dict[str, float] = {}
        for label in self.labels:
            cache = self._log_likelihoods.setdefault(label, {})
            score = log_priors[label]
            for token in tokens:
                value = cache.get(token)
                if value is None:
                    value = cache[token] = self._log_likelihood(label, token)
                score += value
            scores[label] = score
        return scores

    def _log_likelihood(self, label: str, token: str) -> float:
        """Laplace-smoothed ``log P(token | label)``."""
        vocab_size = max(1, len(self._vocabulary))
        term_counts = self._term_counts.get(label, Counter())
        denominator = self._total_terms.get(label, 0) + self._smoothing * vocab_size
        return math.log((term_counts.get(token, 0) + self._smoothing) / denominator)

    def predict(self, text: str) -> str:
        """Most probable label for ``text`` (ties broken by label order)."""
        scores = self.log_scores(text)
        return max(self.labels, key=lambda label: (scores[label], ))

    def predict_proba(self, text: str) -> dict[str, float]:
        """Normalized posterior probabilities via the log-sum-exp trick."""
        scores = self.log_scores(text)
        peak = max(scores.values())
        exp_scores = {label: math.exp(score - peak) for label, score in scores.items()}
        total = sum(exp_scores.values())
        return {label: value / total for label, value in exp_scores.items()}

    # -- persistence -----------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """Serialize the trained model (labels, counts, smoothing)."""
        return {
            "labels": list(self.labels),
            "smoothing": self._smoothing,
            "doc_counts": dict(self._doc_counts),
            "term_counts": {
                label: dict(counts) for label, counts in self._term_counts.items()
            },
            "total_terms": dict(self._total_terms),
            "total_docs": self._total_docs,
        }

    @classmethod
    def from_json(
        cls, data: Mapping[str, Any], tokenizer: Tokenizer | None = None
    ) -> "NaiveBayesClassifier":
        """Rebuild a model serialized by :meth:`to_json`."""
        model = cls(
            labels=data["labels"],
            tokenizer=tokenizer,
            smoothing=data.get("smoothing", 1.0),
        )
        model._doc_counts = Counter(data.get("doc_counts", {}))
        model._term_counts = defaultdict(
            Counter,
            {
                label: Counter(counts)
                for label, counts in data.get("term_counts", {}).items()
            },
        )
        model._total_terms = Counter(data.get("total_terms", {}))
        model._total_docs = int(data.get("total_docs", 0))
        for counts in model._term_counts.values():
            model._vocabulary.update(counts)
        return model
