"""Copy-on-write semantics of summary objects.

``for_query()`` hands query plans a cheap alias of the stored object for
the opted-in built-in types; a mutation on either side must never be
observed by the other.  Projection replaces only the groups or sets it
hits, so the tests below also count what it touches.
"""

import pytest

from repro.model.annotation import Annotation, AnnotationKind
from repro.summaries.base import SummaryObject
from repro.summaries.classifier import ClassifierInstance, ClassifierSummary
from repro.summaries.cluster import ClusterGroup, ClusterInstance, ClusterSummary
from repro.summaries.snippet import SnippetEntry, SnippetInstance, SnippetSummary
from repro.summaries.terms import TermsInstance, TermsSummary
from repro.summaries.timeline import TimelineInstance, TimelineSummary


def classifier():
    obj = ClassifierSummary("C", ["a", "b"])
    obj.add(1, "a")
    obj.add(2, "b")
    return obj


class TestShareSemantics:
    def test_for_query_is_cheap_alias_for_cow_types(self):
        obj = classifier()
        view = obj.for_query()
        assert view is not obj
        assert view._members is obj._members  # shared payload

    def test_mutating_view_leaves_original_intact(self):
        obj = classifier()
        view = obj.for_query()
        view.remove_annotations({1})
        assert obj.annotation_ids() == frozenset({1, 2})
        assert view.annotation_ids() == frozenset({2})

    def test_mutating_original_leaves_view_intact(self):
        obj = classifier()
        view = obj.for_query()
        obj.add(3, "a")
        assert 3 not in view.annotation_ids()
        assert 3 in obj.annotation_ids()

    def test_two_views_are_independent(self):
        obj = classifier()
        first = obj.for_query()
        second = obj.for_query()
        first.remove_annotations({1})
        assert second.annotation_ids() == frozenset({1, 2})

    def test_non_cow_subclass_still_deep_copies(self):
        class Custom(ClassifierSummary):
            copy_on_write = False

        obj = Custom("C", ["a"])
        obj.add(1, "a")
        view = obj.for_query()
        assert view._members is not obj._members

    def test_default_base_class_is_not_cow(self):
        assert SummaryObject.copy_on_write is False


class TestPerTypeIsolation:
    def test_snippet(self):
        obj = SnippetSummary("S")
        obj.add_entry(SnippetEntry(1, "one", ("first.",)))
        view = obj.for_query()
        view.remove_annotations({1})
        obj.add_entry(SnippetEntry(2, "two", ("second.",)))
        assert obj.annotation_ids() == frozenset({1, 2})
        assert view.annotation_ids() == frozenset()

    def test_timeline(self):
        obj = TimelineSummary("T", bucket_seconds=3600)
        obj.add(1, 10)
        view = obj.for_query()
        view.remove_annotations({1})
        assert obj.annotation_ids() == frozenset({1})
        assert view.annotation_ids() == frozenset()

    def test_terms(self):
        obj = TermsSummary("W")
        obj.add(1, {"alpha", "beta"})
        view = obj.for_query()
        view.remove_annotations({1})
        assert obj.term_count("alpha") == 1
        assert view.term_count("alpha") == 0

    def test_cluster_view_mutation_isolated(self):
        instance = ClusterInstance("K", threshold=0.3)
        obj = instance.new_object()
        for annotation_id, text in ((1, "alpha apple pie"),
                                    (2, "alpha apple tart")):
            annotation = Annotation(
                annotation_id=annotation_id, text=text, author="t",
                kind=AnnotationKind.COMMENT, created_at=0.0,
            )
            instance.add_to(obj, annotation, instance.analyze(annotation))
        view = obj.for_query()
        view.remove_annotations({1})
        assert 1 in obj.annotation_ids()
        assert 1 not in view.annotation_ids()

    def test_cluster_query_view_invalidated_by_mutation(self):
        instance = ClusterInstance("K", threshold=0.3)
        obj = instance.new_object()
        first = Annotation(
            annotation_id=1, text="alpha apple pie", author="t",
            kind=AnnotationKind.COMMENT, created_at=0.0,
        )
        instance.add_to(obj, first, instance.analyze(first))
        view_before = obj.for_query()
        second = Annotation(
            annotation_id=2, text="unrelated zebra crossing", author="t",
            kind=AnnotationKind.COMMENT, created_at=0.0,
        )
        instance.add_to(obj, second, instance.analyze(second))
        view_after = obj.for_query()
        assert 2 in view_after.annotation_ids()
        assert 2 not in view_before.annotation_ids()

    def test_classifier(self):
        obj = classifier()
        view = obj.for_query()
        view.remove_annotations({1})
        obj.add(3, "b")
        assert obj.annotation_ids() == frozenset({1, 2, 3})
        assert view.annotation_ids() == frozenset({2})
        assert view.count("a") == 0
        assert view.count("b") == 1


# -- alias chains under maintenance ----------------------------------------

TEXTS = (
    "alpha apple pie", "alpha apple tart", "beta banana split",
    "beta banana bread", "gamma grape jam", "gamma grape juice",
    "delta date loaf", "delta date cake", "epsilon elder wine",
    "zeta zucchini soup",
)


def make_annotation(annotation_id: int) -> Annotation:
    twin = (annotation_id - 1) % len(TEXTS)
    return Annotation(
        annotation_id=annotation_id,
        text=TEXTS[twin] + ". Second sentence here.",
        created_at=float((twin + 1) * 3600),
        kind=AnnotationKind.DOCUMENT,
        title=f"doc-{annotation_id}",
    )


def make_instance(type_name: str):
    if type_name == "Classifier":
        return ClassifierInstance("C", ("a", "b"))
    if type_name == "Cluster":
        return ClusterInstance("K", threshold=0.3, preview_limit=2)
    if type_name == "Snippet":
        return SnippetInstance("S")
    if type_name == "Terms":
        return TermsInstance("W")
    return TimelineInstance("T", bucket_seconds=2 * 3600)


def contribution(instance, annotation: Annotation):
    if isinstance(instance, ClassifierInstance):
        return ("a", "b")[annotation.annotation_id % 2]
    return instance.analyze(annotation)


def fold(instance, obj, *annotation_ids: int) -> None:
    items = [
        (annotation, contribution(instance, annotation))
        for annotation in map(make_annotation, annotation_ids)
    ]
    obj.fold_many(instance, items)


# Ids 11-13 repeat the texts and times of 1-3, so their folds land in
# existing cluster groups and timeline buckets rather than new ones.


def delete(obj, annotation_id: int) -> None:
    """What the incremental delete path does to a cached object."""
    obj.remove_annotations({annotation_id})
    if isinstance(obj, ClusterSummary):
        obj.rerank_groups()


BUILT_IN = ("Classifier", "Cluster", "Snippet", "Terms", "Timeline")


@pytest.mark.parametrize("type_name", BUILT_IN)
class TestAliasChainIsolation:
    """view -> share -> remove -> share -> remove on both aliases, then
    maintenance on the cached object and on a heavy alias of it: every
    other holder's ``to_json`` must stay as it was."""

    def build(self, type_name):
        instance = make_instance(type_name)
        stored = instance.new_object()
        fold(instance, stored, *range(1, 9))
        view = stored.for_query()
        first = view.share()
        first.remove_annotations({1, 2})
        second = first.share()
        second.remove_annotations({3})
        first.remove_annotations({4})
        # A Tracer-style snapshot of the cached object, projected in part.
        twin = stored.share()
        twin.remove_annotations({6})
        holders = {
            "stored": stored, "view": view, "first": first,
            "second": second, "twin": twin,
        }
        return instance, holders

    def assert_others_unchanged(self, holders, mutated, mutate):
        before = {name: obj.to_json() for name, obj in holders.items()}
        mutate(holders[mutated])
        for name, obj in holders.items():
            if name != mutated:
                assert obj.to_json() == before[name], name

    def test_chain_holders_see_their_own_projection(self, type_name):
        _instance, holders = self.build(type_name)
        assert 1 not in holders["first"].annotation_ids()
        assert 4 not in holders["first"].annotation_ids()
        assert 3 in holders["first"].annotation_ids()
        assert 3 not in holders["second"].annotation_ids()
        assert 4 in holders["second"].annotation_ids()
        assert holders["view"].annotation_ids() == holders["stored"].annotation_ids()

    def test_fold_many_on_the_cached_object(self, type_name):
        instance, holders = self.build(type_name)
        self.assert_others_unchanged(
            holders, "stored", lambda obj: fold(instance, obj, 11, 13)
        )
        assert {11, 13} <= holders["stored"].annotation_ids()

    def test_delete_path_on_the_cached_object(self, type_name):
        _instance, holders = self.build(type_name)
        self.assert_others_unchanged(holders, "stored", lambda obj: delete(obj, 5))
        assert 5 not in holders["stored"].annotation_ids()

    def test_fold_many_on_a_projected_heavy_alias(self, type_name):
        instance, holders = self.build(type_name)
        self.assert_others_unchanged(
            holders, "twin", lambda obj: fold(instance, obj, 11)
        )
        assert 11 in holders["twin"].annotation_ids()

    def test_add_to_on_a_projected_heavy_alias(self, type_name):
        instance, holders = self.build(type_name)
        annotation = make_annotation(12)
        self.assert_others_unchanged(
            holders,
            "twin",
            lambda obj: instance.add_to(
                obj, annotation, contribution(instance, annotation)
            ),
        )
        assert 12 in holders["twin"].annotation_ids()

    def test_delete_path_on_a_projected_heavy_alias(self, type_name):
        _instance, holders = self.build(type_name)
        self.assert_others_unchanged(holders, "twin", lambda obj: delete(obj, 7))
        assert 7 not in holders["twin"].annotation_ids()


# -- what a projection touches, counted --------------------------------------


def cluster_view(group_count: int) -> ClusterSummary:
    """A query view of ``group_count`` groups of three members each."""
    obj = ClusterSummary("K")
    for index in range(group_count):
        members = [3 * index + 1, 3 * index + 2, 3 * index + 3]
        obj.groups.append(
            ClusterGroup(
                member_ids=set(members),
                ranking=members,
                previews={members[0]: f"p{index}"},
            )
        )
    return obj.for_query()


class TestProjectionTouchesOnlyWhatItDrops:
    @pytest.mark.parametrize("type_name", BUILT_IN)
    def test_no_dropped_member_leaves_payload_identical(self, type_name):
        instance = make_instance(type_name)
        stored = instance.new_object()
        fold(instance, stored, *range(1, 9))
        view = stored.for_query()
        alias = view.share()
        alias.remove_annotations({99, 100})
        for attribute in ("groups", "_members", "_buckets", "entries"):
            if hasattr(view, attribute):
                assert getattr(alias, attribute) is getattr(view, attribute)
        if isinstance(view, ClusterSummary):
            assert all(a is v for a, v in zip(alias.groups, view.groups))

    @pytest.mark.parametrize("hit", [(), (0,), (1, 3), (0, 2, 4), (0, 1, 2, 3, 4)])
    def test_hitting_k_of_n_groups_rebinds_exactly_k(self, hit):
        view = cluster_view(5)
        alias = view.share()
        # Drop one member of each hit group: no group empties.
        alias.remove_annotations({3 * index + 2 for index in hit})
        assert len(alias.groups) == len(view.groups)
        rebound = [
            index
            for index, (mine, theirs) in enumerate(zip(alias.groups, view.groups))
            if mine is not theirs
        ]
        assert rebound == list(hit)
        assert all(group.size == 3 for group in view.groups)

    def test_second_projection_mutates_the_groups_it_built(self):
        view = cluster_view(3)
        alias = view.share()
        alias.remove_annotations({1})
        built = alias.groups[0]
        alias.remove_annotations({2, 5})
        # The group built by the first projection is narrowed in place;
        # the view's group 1 is replaced, group 2 stays shared.
        assert alias.groups[0] is built
        assert alias.groups[1] is not view.groups[1]
        assert alias.groups[2] is view.groups[2]
        assert [g.size for g in alias.groups] == [1, 2, 3]
        assert [g.size for g in view.groups] == [3, 3, 3]

    def test_share_revokes_ownership_of_built_groups(self):
        view = cluster_view(2)
        alias = view.share()
        alias.remove_annotations({1})
        built = alias.groups[0]
        snapshot = alias.share()
        alias.remove_annotations({2})
        assert alias.groups[0] is not built
        assert snapshot.groups[0] is built
        assert built.member_ids == {2, 3}

    def test_rerank_groups_on_an_alias_leaves_the_original_ranking(self):
        obj = ClusterSummary("K")
        vectors = {1: {"a": 1.0}, 2: {"a": 1.0, "b": 1.0}, 3: {"b": 1.0}}
        # A ranking rerank() would not produce: worst member first.
        obj.groups.append(
            ClusterGroup(member_ids={1, 2, 3}, ranking=[3, 1, 2], vectors=vectors)
        )
        alias = obj.share()
        alias.rerank_groups()
        assert obj.groups[0].ranking == [3, 1, 2]
        assert alias.groups[0].ranking != [3, 1, 2]


# -- merge: what reaches a result uncopied, and who may mutate it ------------


@pytest.mark.parametrize("type_name", BUILT_IN)
class TestMergeIsolation:
    """A merge result may hold an input's containers uncopied; mutating
    the result or any input afterwards must leave every other holder's
    ``to_json`` as it was."""

    def build(self, type_name):
        instance = make_instance(type_name)
        left = instance.new_object()
        fold(instance, left, *range(1, 7))
        right = instance.new_object()
        fold(instance, right, *range(4, 10))  # 4-6 sit on both sides
        projected = left.share()
        projected.remove_annotations({2})
        holders = {
            "left": left,
            "right": right,
            "left_alias": left.share(),
            "right_alias": right.share(),
            "projected": projected,
            "owned": instance.new_object(),
        }
        fold(instance, holders["owned"], 2, 8, 10)
        holders["merged"] = holders["left_alias"].merge(
            holders["right_alias"], holders["projected"], holders["owned"]
        )
        return instance, holders

    def assert_others_unchanged(self, holders, mutated, mutate):
        before = {name: obj.to_json() for name, obj in holders.items()}
        mutate(holders[mutated])
        for name, obj in holders.items():
            if name != mutated:
                assert obj.to_json() == before[name], name

    def test_the_merge_itself_changes_no_input(self, type_name):
        instance = make_instance(type_name)
        left = instance.new_object()
        fold(instance, left, *range(1, 7))
        right = instance.new_object()
        fold(instance, right, *range(4, 10))
        before = (left.to_json(), right.to_json())
        merged = left.merge(right.share(), left.share())
        assert (left.to_json(), right.to_json()) == before
        assert merged.annotation_ids() == frozenset(range(1, 10))

    @pytest.mark.parametrize(
        "mutated", ["merged", "left_alias", "right_alias", "projected", "owned"]
    )
    def test_projection(self, type_name, mutated):
        _instance, holders = self.build(type_name)
        self.assert_others_unchanged(
            holders, mutated, lambda obj: obj.remove_annotations({1, 5, 8})
        )

    @pytest.mark.parametrize(
        "mutated", ["merged", "left_alias", "right_alias", "projected", "owned"]
    )
    def test_fold_many(self, type_name, mutated):
        instance, holders = self.build(type_name)
        self.assert_others_unchanged(
            holders, mutated, lambda obj: fold(instance, obj, 11, 13, 14)
        )

    @pytest.mark.parametrize(
        "mutated", ["merged", "left_alias", "right_alias", "projected", "owned"]
    )
    def test_delete_path(self, type_name, mutated):
        # For clusters this includes rerank_groups on every group.
        _instance, holders = self.build(type_name)
        self.assert_others_unchanged(holders, mutated, lambda obj: delete(obj, 5))


def disjoint_view(first_id: int, group_count: int) -> ClusterSummary:
    """A query view of ``group_count`` three-member groups from ``first_id``."""
    obj = ClusterSummary("K")
    for index in range(group_count):
        members = [first_id + 3 * index + offset for offset in range(3)]
        obj.groups.append(
            ClusterGroup(
                member_ids=set(members),
                ranking=members,
                previews={members[0]: f"p{members[0]}"},
            )
        )
    return obj.for_query()


class TestMergeCopiesOnlyWhatItCombines:
    def test_disjoint_shared_aliases_merge_without_copying_a_group(self):
        left = disjoint_view(1, 3)
        right = disjoint_view(100, 2)
        merged = left.merge(right)
        inputs = left.groups + right.groups
        assert len(merged.groups) == 5
        assert all(
            mine is theirs for mine, theirs in zip(merged.groups, inputs)
        )
        # Holding uncopied groups, the result is itself a shared alias.
        assert merged._shared
        assert merged._owned_groups == frozenset()

    def test_only_the_combined_group_is_new(self):
        left = disjoint_view(1, 3)  # groups {1,2,3} {4,5,6} {7,8,9}
        right = ClusterSummary("K")
        right.groups = [
            ClusterGroup(member_ids={5, 50}, ranking=[50, 5]),
            ClusterGroup(member_ids={60}, ranking=[60]),
        ]
        right = right.for_query()
        merged = left.merge(right)
        assert [group.member_ids for group in merged.groups] == [
            {1, 2, 3}, {4, 5, 6, 50}, {7, 8, 9}, {60},
        ]
        assert merged.groups[0] is left.groups[0]
        assert merged.groups[2] is left.groups[2]
        assert merged.groups[3] is right.groups[1]
        assert merged.groups[1] is not left.groups[1]
        assert merged._owned_groups == frozenset({merged.groups[1]})
        assert left.groups[1].member_ids == {4, 5, 6}

    def test_groups_an_input_may_mutate_in_place_are_copied(self):
        owned = ClusterSummary("K")
        owned.groups = [ClusterGroup(member_ids={1, 2}, ranking=[1, 2])]
        projected = disjoint_view(10, 2).share()
        projected.remove_annotations({10})  # builds and owns a new group
        merged = owned.merge(projected)
        # The unshared input's group and the projection's own group are
        # copied; the projection's untouched shared group is not.
        assert merged.groups[0] is not owned.groups[0]
        assert merged.groups[1] is not projected.groups[0]
        assert merged.groups[2] is projected.groups[1]
        owned.remove_annotations({1})
        projected.remove_annotations({11})
        assert merged.groups[0].member_ids == {1, 2}
        assert merged.groups[1].member_ids == {11, 12}
