"""FIG3 — Figure 3: zoom-in query processing.

Reproduces both commands of the figure: expanding the "refute" label of a
NaiveBayesClass summary over tuples r1/r2, and retrieving the complete
Wikipedia article behind a snippet.
"""

import pytest

from repro import InsightNotes


@pytest.fixture(scope="module")
def figure3():
    notes = InsightNotes()
    notes.create_table("T", ["C1", "C2", "C3"])
    r1 = notes.insert("T", ("x", "y", 5))
    r2 = notes.insert("T", ("x", "y", 10))
    notes.define_classifier("NaiveBayesClass", ["refute", "approve"], [
        ("value is wrong needs correction", "refute"),
        ("invalid experiment reject entry", "refute"),
        ("needs verification before use", "refute"),
        ("confirmed by second observer", "approve"),
        ("looks correct and consistent", "approve"),
    ])
    notes.define_snippet("TextSummary", max_sentences=1)
    notes.link("NaiveBayesClass", "T")
    notes.link("TextSummary", "T")

    notes.add_annotation("value 5 is wrong", table="T", row_id=r1)
    notes.add_annotation("needs verification", table="T", row_id=r2)
    notes.add_annotation("invalid experiment", table="T", row_id=r2)
    for _ in range(6):
        notes.add_annotation("confirmed by second observer correct",
                             table="T", row_id=r1)
    notes.add_annotation(
        "Experiment E description sentence. More detail follows here.",
        table="T", row_id=r1, document=True, title="Experiment E",
    )
    notes.add_annotation(
        "Wikipedia article body sentence. Another article sentence.",
        table="T", row_id=r1, document=True, title="Wikipedia article",
    )
    result = notes.query("SELECT C1, C2, C3 FROM T")
    yield notes, result
    notes.close()


class TestFigure3a:
    def test_refuting_annotations_retrieved(self, figure3):
        notes, result = figure3
        zoom = notes.zoomin(
            f"ZoomIn Reference QID = {result.qid} Where C1 = 'x' "
            f"On NaiveBayesClass Index 1;"
        )
        # One refuting annotation on r1, two on r2 — exactly the figure.
        assert [len(m.annotations) for m in zoom.matches] == [1, 2]
        texts = [a.text for m in zoom.matches for a in m.annotations]
        assert texts == [
            "value 5 is wrong", "needs verification", "invalid experiment",
        ]

    def test_index_1_is_first_declared_label(self, figure3):
        notes, result = figure3
        zoom = notes.zoomin(
            f"ZOOMIN REFERENCE QID = {result.qid} ON NaiveBayesClass INDEX 1"
        )
        assert all(m.component.label == "refute" for m in zoom.matches)


class TestFigure3b:
    def test_wikipedia_article_retrieved_in_full(self, figure3):
        notes, result = figure3
        zoom = notes.zoomin(
            f"ZoomIn Reference QID = {result.qid} Where C3 = 5 "
            f"On TextSummary Index 2;"
        )
        assert len(zoom.matches) == 1
        (article,) = zoom.matches[0].annotations
        assert article.title == "Wikipedia article"
        # Zoom-in returns the complete document, not the snippet.
        assert article.text == (
            "Wikipedia article body sentence. Another article sentence."
        )

    def test_snippet_carried_only_one_sentence(self, figure3):
        _notes, result = figure3
        r1_row = next(t for t in result.tuples if t.values[2] == 5)
        wikipedia_entry = r1_row.summaries["TextSummary"].entries[1]
        assert len(wikipedia_entry.sentences) == 1


class TestCaching:
    def test_zoomins_after_query_hit_the_cache(self, figure3):
        notes, result = figure3
        before = notes.cache.counters.memory_hits
        notes.zoomin(
            f"ZOOMIN REFERENCE QID = {result.qid} ON NaiveBayesClass INDEX 2"
        )
        assert notes.cache.counters.memory_hits == before + 1
