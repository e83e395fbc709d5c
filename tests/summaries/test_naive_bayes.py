"""Tests for repro.summaries.naive_bayes."""

import math

import pytest

from repro.summaries.naive_bayes import NaiveBayesClassifier
from repro.text.tokenize import Tokenizer

TRAINING = [
    ("observed feeding on stonewort beds", "Behavior"),
    ("seen foraging among pond weeds", "Behavior"),
    ("spotted diving for small insects", "Behavior"),
    ("shows symptoms of avian influenza", "Disease"),
    ("appears infected with avian pox", "Disease"),
    ("tested positive for botulism", "Disease"),
]


@pytest.fixture
def model() -> NaiveBayesClassifier:
    return NaiveBayesClassifier(["Behavior", "Disease"]).fit(TRAINING)


class TestConstruction:
    def test_requires_labels(self):
        with pytest.raises(ValueError, match="non-empty"):
            NaiveBayesClassifier([])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            NaiveBayesClassifier(["a", "a"])

    def test_rejects_non_positive_smoothing(self):
        with pytest.raises(ValueError, match="smoothing"):
            NaiveBayesClassifier(["a"], smoothing=0.0)

    def test_untrained_predicts_first_label(self):
        model = NaiveBayesClassifier(["first", "second"])
        assert not model.is_trained
        assert model.predict("anything at all") == "first"


class TestTraining:
    def test_partial_fit_rejects_unknown_label(self, model):
        with pytest.raises(ValueError, match="unknown label"):
            model.partial_fit("text", "Nope")

    def test_is_trained_after_one_example(self):
        model = NaiveBayesClassifier(["a", "b"])
        model.partial_fit("hello world", "a")
        assert model.is_trained

    def test_vocabulary_grows(self, model):
        before = model.vocabulary_size
        model.partial_fit("entirely novel wordage here", "Behavior")
        assert model.vocabulary_size > before


class TestPrediction:
    def test_separates_trained_classes(self, model):
        assert model.predict("bird seen feeding on stonewort") == "Behavior"
        assert model.predict("bird shows symptoms of influenza") == "Disease"

    def test_predict_proba_sums_to_one(self, model):
        probabilities = model.predict_proba("feeding on weeds")
        assert math.isclose(sum(probabilities.values()), 1.0)
        assert set(probabilities) == {"Behavior", "Disease"}

    def test_predict_proba_agrees_with_predict(self, model):
        text = "observed diving for insects"
        probabilities = model.predict_proba(text)
        assert model.predict(text) == max(probabilities, key=probabilities.get)

    def test_prior_dominates_for_uninformative_text(self):
        model = NaiveBayesClassifier(["common", "rare"])
        for _ in range(9):
            model.partial_fit("shared words only", "common")
        model.partial_fit("shared words only", "rare")
        assert model.predict("shared words only") == "common"

    def test_empty_text_falls_back_to_prior(self, model):
        model.partial_fit("extra behavior example", "Behavior")
        # Behavior now has the larger prior (4 vs 3 docs).
        assert model.predict("") == "Behavior"

    def test_log_scores_are_finite(self, model):
        scores = model.log_scores("never seen tokens xyzzy")
        assert all(math.isfinite(score) for score in scores.values())


class TestPersistence:
    def test_round_trip_preserves_predictions(self, model):
        reloaded = NaiveBayesClassifier.from_json(model.to_json())
        for text in ("feeding on stonewort", "symptoms of pox", "random words"):
            assert reloaded.predict(text) == model.predict(text)
            assert reloaded.log_scores(text) == model.log_scores(text)

    def test_round_trip_preserves_vocabulary(self, model):
        reloaded = NaiveBayesClassifier.from_json(model.to_json())
        assert reloaded.vocabulary_size == model.vocabulary_size

    def test_reloaded_model_can_keep_training(self, model):
        reloaded = NaiveBayesClassifier.from_json(model.to_json())
        reloaded.partial_fit("new behavior words", "Behavior")
        assert reloaded.is_trained


def uncached_scores(model: NaiveBayesClassifier, text: str) -> dict[str, float]:
    """Log scores recomputed from the serialized counts, nothing cached."""
    data = model.to_json()
    smoothing = data["smoothing"]
    vocabulary = set()
    for counts in data["term_counts"].values():
        vocabulary.update(counts)
    vocab_size = max(1, len(vocabulary))
    tokens = Tokenizer().tokens(text)
    scores = {}
    for label in data["labels"]:
        prior = (data["doc_counts"].get(label, 0) + smoothing) / (
            data["total_docs"] + smoothing * len(data["labels"])
        )
        score = math.log(prior)
        term_counts = data["term_counts"].get(label, {})
        denominator = data["total_terms"].get(label, 0) + smoothing * vocab_size
        for token in tokens:
            score += math.log((term_counts.get(token, 0) + smoothing) / denominator)
        scores[label] = score
    return scores


PROBES = (
    "observed feeding on stonewort beds",
    "feeding feeding feeding on pox",
    "symptoms of avian influenza near the weeds",
    "",
)
UNSEEN = ("xyzzy plugh frobnicate", "stonewort xyzzy stonewort plugh")


class TestScoreCache:
    """Cached log priors and likelihoods give exactly the uncached floats."""

    def test_scores_after_predict_then_partial_fit(self, model):
        for text in PROBES:
            model.predict(text)  # fills the cache
        model.partial_fit("seen diving near stonewort", "Behavior")
        model.partial_fit("infected with botulism again", "Disease")
        fresh = NaiveBayesClassifier(["Behavior", "Disease"]).fit(
            TRAINING
            + [
                ("seen diving near stonewort", "Behavior"),
                ("infected with botulism again", "Disease"),
            ]
        )
        for text in PROBES + UNSEEN:
            assert model.log_scores(text) == fresh.log_scores(text)
            assert model.log_scores(text) == uncached_scores(model, text)

    def test_scores_after_round_trip(self, model):
        for text in PROBES:
            model.log_scores(text)
        reloaded = NaiveBayesClassifier.from_json(model.to_json())
        fresh = NaiveBayesClassifier(["Behavior", "Disease"]).fit(TRAINING)
        for text in PROBES + UNSEEN:
            assert reloaded.log_scores(text) == fresh.log_scores(text)
            assert reloaded.log_scores(text) == model.log_scores(text)
            assert reloaded.log_scores(text) == uncached_scores(reloaded, text)

    def test_scores_of_out_of_vocabulary_tokens(self, model):
        fresh = NaiveBayesClassifier(["Behavior", "Disease"]).fit(TRAINING)
        for text in UNSEEN:
            first = model.log_scores(text)
            assert model.log_scores(text) == first  # served from the cache
            assert first == fresh.log_scores(text)
            assert first == uncached_scores(model, text)
        # A partial fit that makes an unseen token seen changes its score.
        before = model.log_scores("xyzzy")
        model.partial_fit("xyzzy xyzzy", "Disease")
        after = model.log_scores("xyzzy")
        assert after != before
        assert after == uncached_scores(model, "xyzzy")
