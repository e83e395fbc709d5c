"""Summary values: what a query pipeline holds never changes.

``for_query()``, ``without()`` and ``merge()`` return values.  Every
built-in mutator raises on a value; a value may share any group or set
with other values; and a maintenance object detaches its cached
``for_query()`` value before its next mutation.  The tests below check
those rules for all five built-in types, count what a projection or a
merge rebuilds, and keep the alias isolation cases as guards: no holder
ever observes another's change.
"""

import pytest

from repro.errors import MaintenanceError
from repro.model.annotation import Annotation, AnnotationKind
from repro.summaries.base import SummaryObject
from repro.summaries.classifier import ClassifierInstance, ClassifierSummary
from repro.summaries.cluster import ClusterGroup, ClusterInstance, ClusterSummary
from repro.summaries.snippet import SnippetEntry, SnippetInstance, SnippetSummary
from repro.summaries.terms import TermsInstance, TermsSummary
from repro.summaries.timeline import TimelineInstance, TimelineSummary


def refused():
    """Expect the refusal every built-in mutator raises on a value."""
    return pytest.raises(MaintenanceError, match="query-time value")


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
        assert obj.for_query() is view  # built once, no per-call copy

    def test_mutating_view_leaves_original_intact(self):
        obj = classifier()
        view = obj.for_query()
        with refused():
            view.remove_annotations({1})
        projected = view.without({1})
        assert obj.annotation_ids() == frozenset({1, 2})
        assert view.annotation_ids() == frozenset({1, 2})
        assert projected.annotation_ids() == frozenset({2})

    def test_mutating_original_leaves_view_intact(self):
        obj = classifier()
        view = obj.for_query()
        obj.add(3, "a")
        assert 3 not in view.annotation_ids()
        assert 3 in obj.annotation_ids()
        # The mutation detached the view and dropped it from the cache.
        assert view._members["a"] is not obj._members["a"]
        assert 3 in obj.for_query().annotation_ids()

    def test_two_views_are_independent(self):
        obj = classifier()
        first = obj.for_query().without({1})
        second = obj.for_query().without({2})
        assert first.annotation_ids() == frozenset({2})
        assert second.annotation_ids() == frozenset({1})
        assert obj.for_query().annotation_ids() == frozenset({1, 2})

    def test_non_cow_subclass_still_deep_copies(self):
        # A type that keeps the base for_query() gets a copy per call.
        class Custom(ClassifierSummary):
            for_query = SummaryObject.for_query

        obj = Custom("C", ["a"])
        obj.add(1, "a")
        view = obj.for_query()
        assert view._members["a"] is not obj._members["a"]
        assert obj.for_query() is not view

    def test_default_base_class_is_not_cow(self):
        # The base contract, which extension types inherit: for_query()
        # is copy(), without() is copy() then remove_annotations().
        obj = classifier()
        copied = SummaryObject.for_query(obj)
        assert copied._members["a"] is not obj._members["a"]
        projected = SummaryObject.without(obj, {1})
        assert projected.annotation_ids() == frozenset({2})
        assert obj.annotation_ids() == frozenset({1, 2})
        with refused():
            projected.add(3, "a")


class TestPerTypeIsolation:
    def test_snippet(self):
        obj = SnippetSummary("S")
        obj.add_entry(SnippetEntry(1, "one", ("first.",)))
        view = obj.for_query()
        projected = view.without({1})
        obj.add_entry(SnippetEntry(2, "two", ("second.",)))
        assert obj.annotation_ids() == frozenset({1, 2})
        assert view.annotation_ids() == frozenset({1})
        assert projected.annotation_ids() == frozenset()

    def test_timeline(self):
        obj = TimelineSummary("T", bucket_seconds=3600)
        obj.add(1, 10)
        view = obj.for_query()
        projected = view.without({1})
        obj.add(2, 10)
        assert obj.annotation_ids() == frozenset({1, 2})
        assert view.annotation_ids() == frozenset({1})
        assert projected.annotation_ids() == frozenset()

    def test_terms(self):
        obj = TermsSummary("W")
        obj.add(1, {"alpha", "beta"})
        view = obj.for_query()
        projected = view.without({1})
        obj.add(2, {"alpha"})
        assert obj.term_count("alpha") == 2
        assert view.term_count("alpha") == 1
        assert projected.term_count("alpha") == 0

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
        projected = view.without({1})
        assert 1 in obj.annotation_ids()
        assert 1 in view.annotation_ids()
        assert 1 not in projected.annotation_ids()

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
        projected = view.without({1})
        obj.add(3, "b")
        assert obj.annotation_ids() == frozenset({1, 2, 3})
        assert view.annotation_ids() == frozenset({1, 2})
        assert projected.annotation_ids() == frozenset({2})
        assert projected.count("a") == 0
        assert projected.count("b") == 1


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


def add_to(instance, obj, annotation_id: int) -> None:
    annotation = make_annotation(annotation_id)
    instance.add_to(obj, annotation, contribution(instance, annotation))


# Ids 11-13 repeat the texts and times of 1-3, so their folds land in
# existing cluster groups and timeline buckets rather than new ones.


def delete(obj, annotation_id: int) -> None:
    """What the incremental delete path does to a cached object."""
    obj.remove_annotations({annotation_id})
    if isinstance(obj, ClusterSummary):
        obj.rerank_groups()


def mutators(type_name: str, instance) -> dict:
    """Every built-in mutator of ``type_name``, applied to one object."""
    found = {
        "remove_annotations": lambda obj: obj.remove_annotations({1}),
        "fold_many": lambda obj: fold(instance, obj, 12),
        "add_to": lambda obj: add_to(instance, obj, 12),
    }
    if type_name == "Cluster":
        found["rerank_groups"] = lambda obj: obj.rerank_groups()
    elif type_name == "Snippet":
        found["add_entry"] = lambda obj: obj.add_entry(SnippetEntry(12, "t", ("s.",)))
    else:
        annotation = make_annotation(12)
        found["add"] = lambda obj: obj.add(12, contribution(instance, annotation))
    return found


BUILT_IN = ("Classifier", "Cluster", "Snippet", "Terms", "Timeline")
MUTATOR_CASES = [
    (type_name, mutator)
    for type_name in BUILT_IN
    for mutator in mutators(type_name, make_instance(type_name))
]


def assert_refused(holders, mutated, mutate):
    """``mutate`` raises on ``holders[mutated]`` and no holder changes."""
    before = {name: obj.to_json() for name, obj in holders.items()}
    with refused():
        mutate(holders[mutated])
    assert {name: obj.to_json() for name, obj in holders.items()} == before


def assert_others_unchanged(holders, mutated, mutate):
    before = {name: obj.to_json() for name, obj in holders.items()}
    mutate(holders[mutated])
    for name, obj in holders.items():
        if name != mutated:
            assert obj.to_json() == before[name], name


class TestValuesRefuseMutation:
    """The one check that replaces ownership: a value never changes."""

    def build(self, type_name):
        instance = make_instance(type_name)
        stored = instance.new_object()
        fold(instance, stored, *range(1, 7))
        other = instance.new_object()
        fold(instance, other, *range(4, 10))
        view = stored.for_query()
        holders = {
            "stored": stored,
            "other": other,
            "for_query": view,
            "without": view.without({2}),
            "merge": view.merge(other.for_query()),
            # Values of maintenance objects keep their heavy state.
            "heavy_without": stored.without({3}),
            "heavy_merge": stored.merge(other),
        }
        return instance, holders

    @pytest.mark.parametrize(
        "value", ["for_query", "without", "merge", "heavy_without", "heavy_merge"]
    )
    @pytest.mark.parametrize("type_name, mutator", MUTATOR_CASES)
    def test_every_built_in_mutator_raises_on_a_value(self, type_name, mutator, value):
        instance, holders = self.build(type_name)
        assert_refused(holders, value, mutators(type_name, instance)[mutator])

    @pytest.mark.parametrize("type_name, mutator", MUTATOR_CASES)
    def test_maintenance_objects_stay_mutable(self, type_name, mutator):
        instance, holders = self.build(type_name)
        assert_others_unchanged(
            holders, "stored", mutators(type_name, instance)[mutator]
        )


@pytest.mark.parametrize("type_name", BUILT_IN)
class TestAliasChainIsolation:
    """view -> without -> without on two branches, and a heavy value of the
    cached object: maintenance on the cached object leaves every value's
    ``to_json`` as it was, and maintenance on a value is refused."""

    def build(self, type_name):
        instance = make_instance(type_name)
        stored = instance.new_object()
        fold(instance, stored, *range(1, 9))
        view = stored.for_query()
        partial = view.without({1, 2})
        second = partial.without({3})
        first = partial.without({4})
        # A Tracer-style holder of the cached object, projected in part.
        twin = stored.without({6})
        holders = {
            "stored": stored, "view": view, "partial": partial,
            "first": first, "second": second, "twin": twin,
        }
        return instance, holders

    def test_chain_holders_see_their_own_projection(self, type_name):
        _instance, holders = self.build(type_name)
        assert 1 not in holders["first"].annotation_ids()
        assert 4 not in holders["first"].annotation_ids()
        assert 3 in holders["first"].annotation_ids()
        assert 3 not in holders["second"].annotation_ids()
        assert 4 in holders["second"].annotation_ids()
        assert {3, 4} <= holders["partial"].annotation_ids()
        assert holders["view"].annotation_ids() == holders["stored"].annotation_ids()

    def test_fold_many_on_the_cached_object(self, type_name):
        instance, holders = self.build(type_name)
        assert_others_unchanged(
            holders, "stored", lambda obj: fold(instance, obj, 11, 13)
        )
        assert {11, 13} <= holders["stored"].annotation_ids()
        assert {11, 13} <= holders["stored"].for_query().annotation_ids()

    def test_add_to_on_the_cached_object(self, type_name):
        instance, holders = self.build(type_name)
        assert_others_unchanged(
            holders, "stored", lambda obj: add_to(instance, obj, 12)
        )
        assert 12 in holders["stored"].for_query().annotation_ids()

    def test_delete_path_on_the_cached_object(self, type_name):
        _instance, holders = self.build(type_name)
        assert_others_unchanged(holders, "stored", lambda obj: delete(obj, 5))
        assert 5 not in holders["stored"].annotation_ids()
        assert 5 not in holders["stored"].for_query().annotation_ids()

    def test_fold_many_on_a_projected_heavy_alias(self, type_name):
        instance, holders = self.build(type_name)
        assert_refused(holders, "twin", lambda obj: fold(instance, obj, 11))

    def test_add_to_on_a_projected_heavy_alias(self, type_name):
        instance, holders = self.build(type_name)
        assert_refused(holders, "twin", lambda obj: add_to(instance, obj, 12))

    def test_delete_path_on_a_projected_heavy_alias(self, type_name):
        _instance, holders = self.build(type_name)
        assert_refused(holders, "twin", lambda obj: delete(obj, 7))


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


def set_view(type_name: str, set_count: int):
    """A query view of ``set_count`` three-member sets (labels, terms or
    buckets), set ``i`` holding ids ``3i+1 .. 3i+3``."""
    if type_name == "Classifier":
        obj = ClassifierSummary("C", [f"l{i}" for i in range(set_count)])
        for i in range(set_count):
            for annotation_id in range(3 * i + 1, 3 * i + 4):
                obj.add(annotation_id, f"l{i}")
        return obj.for_query()
    obj = TermsSummary("W") if type_name == "Terms" else TimelineSummary("T")
    for i in range(set_count):
        for annotation_id in range(3 * i + 1, 3 * i + 4):
            obj.add(annotation_id, {f"t{i}"} if type_name == "Terms" else i)
    return obj.for_query()


def sets_of(obj) -> list[set[int]]:
    return list((obj._buckets if isinstance(obj, TimelineSummary) else obj._members).values())


class TestProjectionTouchesOnlyWhatItDrops:
    @pytest.mark.parametrize("type_name", BUILT_IN)
    def test_no_dropped_member_leaves_payload_identical(self, type_name):
        instance = make_instance(type_name)
        stored = instance.new_object()
        fold(instance, stored, *range(1, 9))
        view = stored.for_query()
        assert view.without({99, 100}) is view

    @pytest.mark.parametrize("hit", [(), (0,), (1, 3), (0, 2, 4), (0, 1, 2, 3, 4)])
    def test_hitting_k_of_n_groups_rebinds_exactly_k(self, hit):
        view = cluster_view(5)
        # Drop one member of each hit group: no group empties.
        projected = view.without({3 * index + 2 for index in hit})
        assert len(projected.groups) == len(view.groups)
        rebound = [
            index
            for index, (mine, theirs) in enumerate(zip(projected.groups, view.groups))
            if mine is not theirs
        ]
        assert rebound == list(hit)
        assert all(group.size == 3 for group in view.groups)

    @pytest.mark.parametrize("hit", [(), (0,), (1, 3), (0, 1, 2, 3)])
    @pytest.mark.parametrize("type_name", ["Classifier", "Terms", "Timeline"])
    def test_hitting_k_of_n_sets_rebuilds_exactly_k(self, type_name, hit):
        view = set_view(type_name, 4)
        projected = view.without({3 * index + 2 for index in hit})
        rebuilt = [
            index
            for index, (mine, theirs) in enumerate(
                zip(sets_of(projected), sets_of(view))
            )
            if mine is not theirs
        ]
        assert rebuilt == list(hit)
        assert all(len(members) == 3 for members in sets_of(view))

    def test_second_projection_rebuilds_only_what_it_hits(self):
        view = cluster_view(3)
        first = view.without({1})
        second = first.without({2, 5})
        # The group the first projection built is rebuilt, not narrowed in
        # place; the view's group 1 is rebuilt, group 2 stays shared.
        assert second.groups[0] is not first.groups[0]
        assert second.groups[1] is not view.groups[1]
        assert second.groups[2] is view.groups[2]
        assert [g.size for g in second.groups] == [1, 2, 3]
        assert [g.size for g in first.groups] == [2, 3, 3]
        assert [g.size for g in view.groups] == [3, 3, 3]

    def test_projecting_a_projection_leaves_it_intact(self):
        view = cluster_view(2)
        first = view.without({1})
        built = first.groups[0]
        second = first.without({2})
        assert first.groups[0] is built
        assert built.member_ids == {2, 3}
        assert second.groups[0].member_ids == {3}
        assert second.groups[1] is view.groups[1]

    def test_rerank_groups_on_an_alias_leaves_the_original_ranking(self):
        obj = ClusterSummary("K")
        vectors = {1: {"a": 1.0}, 2: {"a": 1.0, "b": 1.0}, 3: {"b": 1.0}}
        # A ranking rerank() would not produce: worst member first.
        obj.groups.append(
            ClusterGroup(member_ids={1, 2, 3}, ranking=[3, 1, 2], vectors=vectors)
        )
        alias = obj.without(set())  # a heavy value of the stored object
        with refused():
            alias.rerank_groups()
        obj.rerank_groups()
        assert alias.groups[0].ranking == [3, 1, 2]
        assert obj.groups[0].ranking != [3, 1, 2]


# -- merge: what reaches a result uncopied -----------------------------------


@pytest.mark.parametrize("type_name", BUILT_IN)
class TestMergeIsolation:
    """A merge result may hold a value input's groups or sets uncopied;
    maintenance on the stored objects or on an unshared input afterwards
    must leave every other holder's ``to_json`` as it was, and every value
    refuses maintenance."""

    def build(self, type_name):
        instance = make_instance(type_name)
        left = instance.new_object()
        fold(instance, left, *range(1, 7))
        right = instance.new_object()
        fold(instance, right, *range(4, 10))  # 4-6 sit on both sides
        holders = {
            "left": left,
            "right": right,
            "left_alias": left.for_query(),
            "right_alias": right.for_query(),
            "projected": left.for_query().without({2}),
            "owned": instance.new_object(),
        }
        fold(instance, holders["owned"], 2, 8, 10)
        holders["merged"] = holders["left_alias"].merge(
            holders["right_alias"], holders["projected"], holders["owned"]
        )
        return instance, holders

    def test_the_merge_itself_changes_no_input(self, type_name):
        instance = make_instance(type_name)
        left = instance.new_object()
        fold(instance, left, *range(1, 7))
        right = instance.new_object()
        fold(instance, right, *range(4, 10))
        right_view, left_view = right.for_query(), left.for_query()
        before = [obj.to_json() for obj in (left, right, right_view, left_view)]
        merged = left.merge(right_view, left_view)
        again = left_view.merge(right_view, left)
        assert [obj.to_json() for obj in (left, right, right_view, left_view)] == before
        assert merged.annotation_ids() == frozenset(range(1, 10))
        assert again.annotation_ids() == frozenset(range(1, 10))

    @pytest.mark.parametrize(
        "mutated", ["merged", "left_alias", "right_alias", "projected", "owned"]
    )
    def test_projection(self, type_name, mutated):
        _instance, holders = self.build(type_name)
        before = {name: obj.to_json() for name, obj in holders.items()}
        projected = holders[mutated].without({1, 5, 8})
        assert {name: obj.to_json() for name, obj in holders.items()} == before
        assert projected.annotation_ids().isdisjoint({1, 5, 8})

    @pytest.mark.parametrize(
        "mutated",
        ["merged", "left_alias", "right_alias", "projected", "owned", "left", "right"],
    )
    def test_fold_many(self, type_name, mutated):
        instance, holders = self.build(type_name)
        mutate = lambda obj: fold(instance, obj, 11, 13, 14)  # noqa: E731
        if mutated in ("owned", "left", "right"):
            assert_others_unchanged(holders, mutated, mutate)
        else:
            assert_refused(holders, mutated, mutate)

    @pytest.mark.parametrize(
        "mutated",
        ["merged", "left_alias", "right_alias", "projected", "owned", "left", "right"],
    )
    def test_delete_path(self, type_name, mutated):
        # For clusters this includes rerank_groups on every group.
        _instance, holders = self.build(type_name)
        mutate = lambda obj: delete(obj, 5)  # noqa: E731
        if mutated in ("owned", "left", "right"):
            assert_others_unchanged(holders, mutated, mutate)
        else:
            assert_refused(holders, mutated, mutate)


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
        before = (left.to_json(), right.to_json())
        merged = left.merge(right)
        inputs = left.groups + right.groups
        assert len(merged.groups) == 5
        assert all(
            mine is theirs for mine, theirs in zip(merged.groups, inputs)
        )
        assert (left.to_json(), right.to_json()) == before
        with refused():
            merged.remove_annotations({1})

    @pytest.mark.parametrize("type_name", ["Terms", "Timeline"])
    def test_disjoint_set_values_merge_without_copying_a_set(self, type_name):
        left = set_view(type_name, 2)
        right = set_view(type_name, 4).without({1, 2, 3, 4, 5, 6})
        before = (left.to_json(), right.to_json())
        merged = left.merge(right)
        assert len(sets_of(merged)) == 4
        assert all(
            mine is theirs
            for mine, theirs in zip(sets_of(merged), sets_of(left) + sets_of(right))
        )
        assert (left.to_json(), right.to_json()) == before

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
        assert left.groups[1].member_ids == {4, 5, 6}

    def test_groups_an_input_may_mutate_in_place_are_copied(self):
        owned = ClusterSummary("K")
        owned.groups = [ClusterGroup(member_ids={1, 2}, ranking=[1, 2])]
        projected = disjoint_view(10, 2).without({10})  # builds a new group
        merged = owned.merge(projected)
        # The maintenance object's group is copied; every group of the
        # value passes through, the one its projection built included.
        assert merged.groups[0] is not owned.groups[0]
        assert merged.groups[1] is projected.groups[0]
        assert merged.groups[2] is projected.groups[1]
        owned.remove_annotations({1})
        assert merged.groups[0].member_ids == {1, 2}
        assert merged.groups[1].member_ids == {11, 12}
