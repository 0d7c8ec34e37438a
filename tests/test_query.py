"""The relational query layer: AST, parser, normalizer, executor.

The example schema throughout is the paper's Example 2 shape
(``CT(C,T); CS(C,S); CHR(C,H,R)`` with ``C → T, C H → R``) — it has
genuinely local targets (``[C H R]`` lives in CHR alone, ``[C S]`` in
CS alone) *and* a derivation-crossing one (``[C T]`` is storable by CT
but derivable through CS and CHR closures), so routing, pushdown, and
oracle equality are all exercised on the same instance.
"""

import pytest

from repro.data.relations import RelationInstance
from repro.dsl import parse_scenario
from repro.exceptions import QueryError
from repro.query import (
    Conjunction,
    Join,
    Project,
    QueryEngine,
    Scan,
    Select,
    cmp,
    eq,
    evaluate_naive,
    make_predicate,
    normalize,
    parse_query,
    scan,
    validate,
)
from repro.schema.attributes import AttributeSet
from repro.weak.durable import DurableShardedService
from repro.weak.server import WeakInstanceServer
from repro.weak.service import WeakInstanceService
from repro.weak.sharded import ShardedWeakInstanceService
from repro.workloads.schemas import disjoint_star_schema
from repro.workloads.states import random_satisfying_state

SCENARIO = """
schema: CT(C,T); CS(C,S); CHR(C,H,R)
fds: C -> T; C H -> R
state:
  CT: (CS101, Smith), (CS102, Lee)
  CS: (CS101, Amy), (CS101, Bo), (CS102, Cal)
  CHR: (CS101, Mon-10, 313), (CS101, Tue-9, 327), (CS102, Mon-10, 110)
"""


@pytest.fixture()
def scenario():
    return parse_scenario(SCENARIO)


# ---------------------------------------------------------------------------
# parser and builder


class TestParser:
    @pytest.mark.parametrize(
        "text",
        [
            "[C T]",
            "select(C=CS101, [C H R])",
            "project(H R, select(C=CS101, [C H R]))",
            "join([C S], [C T])",
            "select(C=CS101 & H=Mon-10, [C H R])",
            "select(R<300, [C H R])",
            "select(T!='a b''c', [C T])",
            "project(C, join(select(S=Amy, [C S]), [C T]))",
        ],
    )
    def test_round_trip(self, text):
        q = parse_query(text)
        assert parse_query(q.render()) == q
        assert str(q) == q.render()

    def test_builder_equals_parser(self):
        built = scan("C H R").select(C="CS101").project("H R")
        assert built == parse_query("project(H R, select(C=CS101, [C H R]))")

    def test_join_operator(self):
        assert scan("C S") * scan("C T") == parse_query("join([C S], [C T])")

    def test_keywords_case_insensitive(self):
        assert parse_query("SELECT(C=1, [C T])") == parse_query(
            "select(C=1, [C T])"
        )

    def test_values_parse_like_the_dsl(self):
        q = parse_query("select(R=313 & T=Lee, [C T R])")
        by_attr = {c.attr: c.value for c in q.pred.parts}
        assert by_attr == {"R": 313, "T": "Lee"}

    def test_quoted_values(self):
        q = parse_query("select(T='Mon, 10 (am)' & S='o''clock', [S T])")
        by_attr = {c.attr: c.value for c in q.pred.parts}
        assert by_attr == {"T": "Mon, 10 (am)", "S": "o'clock"}
        assert parse_query(q.render()) == q

    def test_query_objects_pass_through(self):
        q = scan("C T")
        assert parse_query(q) is q

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "[ ]",
            "[C T",
            "select([C T])",
            "select(C=, [C T])",
            "select(C ! 1, [C T])",
            "join([C T])",
            "project(, [C T])",
            "[C T] trailing",
            "select(T='unterminated, [C T])",
            "window(C T)",
        ],
    )
    def test_malformed_input_raises(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)

    def test_predicate_canonical_order(self):
        a = parse_query("select(H=Mon-10 & C=CS101, [C H R])")
        b = parse_query("select(C=CS101 & H=Mon-10, [C H R])")
        assert a == b

    def test_make_predicate_dedupes(self):
        pred = make_predicate([eq("C", 1), eq("C", 1), eq("H", 2)])
        assert isinstance(pred, Conjunction) and len(pred.parts) == 2
        assert make_predicate([eq("C", 1), eq("C", 1)]) == eq("C", 1)

    def test_bad_operator_rejected(self):
        with pytest.raises(QueryError):
            cmp("C", "~", 1)


# ---------------------------------------------------------------------------
# normalization and validation


class TestNormalize:
    def test_idempotent(self):
        q = scan("C S").select(S="Amy").join(scan("C T")).project("S T")
        assert normalize(normalize(q)) == normalize(q)

    def test_selects_merge(self):
        q = scan("C H R").select(C="CS101").select(H="Mon-10")
        n = normalize(q)
        assert isinstance(n, Select) and isinstance(n.child, Scan)
        assert len(n.pred.parts) == 2

    def test_select_pushes_through_project(self):
        q = scan("C H R").project("C H").select(C="CS101")
        n = normalize(q)
        assert isinstance(n, Project)
        assert isinstance(n.child, Select) and isinstance(n.child.child, Scan)

    def test_select_splits_across_join(self):
        q = (scan("C S") * scan("C T")).select(S="Amy", T="Lee")
        n = normalize(q)
        assert isinstance(n, Join)
        for side in (n.left, n.right):
            assert isinstance(side, Select) and isinstance(side.child, Scan)

    def test_shared_attribute_pushes_to_both_sides(self):
        q = (scan("C S") * scan("C T")).select(C="CS101")
        n = normalize(q)
        preds = [side.pred for side in (n.left, n.right)]
        assert all(p == eq("C", "CS101") for p in preds)

    def test_projects_collapse_and_identity_drops(self):
        q = scan("C H R").project("C H").project("C")
        n = normalize(q)
        assert n == Project(Scan(AttributeSet("C H R")), AttributeSet("C"))
        assert normalize(scan("C T").project("C T")) == scan("C T")

    def test_scan_target_never_rewritten(self):
        # project(Y, [X]) is NOT [Y]: narrowing the scan would widen
        # the window (fewer totality requirements)
        n = normalize(scan("C H R").project("C"))
        assert isinstance(n, Project) and n.child == scan("C H R")

    def test_join_operands_ordered(self):
        assert normalize(scan("C S") * scan("C T")) == normalize(
            scan("C T") * scan("C S")
        )

    def test_join_inputs_pruned(self):
        n = normalize((scan("C S") * scan("C H R")).project("S H"))
        inputs = {n.child.left, n.child.right}
        assert Project(Scan(AttributeSet("C H R")), AttributeSet("C H")) in inputs

    def test_validate_rejects_bad_trees(self, scenario):
        universe = scenario.schema.universe
        with pytest.raises(QueryError):
            validate(scan("C X"), universe)
        with pytest.raises(QueryError):
            validate(scan("C T").project("S"), universe)
        with pytest.raises(QueryError):
            validate(scan("C T").select(S="Amy"), universe)


# ---------------------------------------------------------------------------
# semantics: project(Y, [X]) vs [Y]


def test_project_of_scan_differs_from_narrower_scan(scenario):
    svc = WeakInstanceService.from_state(scenario.state, scenario.fds)
    # every C appears in some CHR row here except none — but [C] is
    # total for every stored C, while project(C, [C H R]) only lists
    # courses with a meeting
    wide = svc.query(scan("C H R").project("C"))
    narrow = svc.query(scan("C"))
    assert set(t.value("C") for t in wide) <= set(t.value("C") for t in narrow)
    assert len(narrow) == 2  # CS101, CS102
    # and they genuinely differ on a state where a course has no row
    svc.insert("CT", ("CS200", "New"))
    wide2 = svc.query(scan("C H R").project("C"))
    narrow2 = svc.query(scan("C"))
    assert "CS200" not in {t.value("C") for t in wide2}
    assert "CS200" in {t.value("C") for t in narrow2}


# ---------------------------------------------------------------------------
# executor vs the naive oracle, across every service


QUERIES = [
    "[C T]",
    "[C H R]",
    "select(C=CS101, [C H R])",
    "select(C=CS101 & H=Mon-10, [C H R])",
    "select(R>300, [C H R])",
    "select(R!=313, [C H R])",
    "project(H R, select(C=CS101, [C H R]))",
    "join([C S], [C T])",
    "project(S T, join([C S], [C T]))",
    "select(S=Amy, join([C S], [C T]))",
    "join(select(C=CS101, [C S]), [C H R])",
    "project(C, [C H R])",
    "select(C=missing, [C S])",
]


def _services(scenario, tmp_path):
    yield WeakInstanceService.from_state(scenario.state, scenario.fds)
    yield WeakInstanceService.from_state(
        scenario.state, scenario.fds, method="local"
    )
    yield ShardedWeakInstanceService.from_state(scenario.state, scenario.fds)
    durable = DurableShardedService(
        scenario.schema, scenario.fds, tmp_path / "store"
    )
    durable.load(scenario.state)
    yield durable
    durable.close()


@pytest.mark.parametrize("text", QUERIES)
def test_every_service_matches_the_naive_oracle(scenario, tmp_path, text):
    expected = evaluate_naive(text, scenario.state, scenario.fds)
    for svc in _services(scenario, tmp_path):
        assert svc.query(text) == expected, f"{type(svc).__name__}: {text}"


def test_server_query_matches_the_oracle(scenario):
    service = ShardedWeakInstanceService.from_state(scenario.state, scenario.fds)
    with WeakInstanceServer(service, workers=2) as server:
        for text in QUERIES:
            expected = evaluate_naive(text, scenario.state, scenario.fds)
            assert server.query(text) == expected
        report = server.explain("select(C=CS101, [C H R])")
        assert "via shards" in report.render()


def test_query_accepts_text_and_ast(scenario):
    svc = WeakInstanceService.from_state(scenario.state, scenario.fds)
    assert svc.query("select(C=CS101, [C S])") == svc.query(
        scan("C S").select(C="CS101")
    )


def test_query_reflects_updates(scenario):
    svc = ShardedWeakInstanceService.from_state(scenario.state, scenario.fds)
    q = "select(C=CS102, [C S])"
    assert len(svc.query(q)) == 1
    svc.insert("CS", ("CS102", "Dee"))
    assert len(svc.query(q)) == 2
    svc.delete("CS", ("CS102", "Dee"))
    assert len(svc.query(q)) == 1
    assert svc.query(q) == evaluate_naive(q, svc.state(), svc.fds)


# ---------------------------------------------------------------------------
# caches and explain


class TestCaches:
    def test_result_cache_hits_until_a_mutation(self, scenario):
        svc = WeakInstanceService.from_state(scenario.state, scenario.fds)
        q = "select(C=CS101, [C H R])"
        first = svc.query(q)
        assert svc.stats.query_result_cache_hits == 0
        assert svc.query(q) == first
        assert svc.stats.query_result_cache_hits == 1
        svc.insert("CHR", ("CS101", "Wed-9", 401))
        assert len(svc.query(q)) == len(first) + 1
        assert svc.stats.query_result_cache_hits == 1  # stamp moved: miss

    def test_plan_cache_shared_by_equivalent_spellings(self, scenario):
        svc = WeakInstanceService.from_state(scenario.state, scenario.fds)
        svc.query("select(C=CS101 & H=Mon-10, [C H R])")
        assert svc.stats.query_plan_cache_hits == 0
        svc.query("select(H=Mon-10 & C=CS101, [C H R])")
        assert svc.stats.query_plan_cache_hits == 1
        assert svc.stats.query_result_cache_hits == 1

    def test_pushed_scan_counter(self, scenario):
        svc = WeakInstanceService.from_state(scenario.state, scenario.fds)
        svc.query("[C T]")
        assert svc.stats.query_pushed_scans == 0
        svc.query("select(C=CS101, [C H R])")
        assert svc.stats.query_pushed_scans == 1

    def test_engine_invalidate_clears_caches(self, scenario):
        svc = WeakInstanceService.from_state(scenario.state, scenario.fds)
        engine = svc._query_engine()
        svc.query("[C T]")
        assert engine._plan_cache and engine._result_cache
        engine.invalidate()
        assert not engine._plan_cache and not engine._result_cache

    def test_result_cache_is_lru_bounded(self, scenario):
        svc = WeakInstanceService.from_state(scenario.state, scenario.fds)
        engine = QueryEngine(svc, result_cache_size=2, plan_cache_size=2)
        for attr in ("C", "T", "S", "H"):
            engine.run(f"[{attr}]")
        assert len(engine._result_cache) == 2
        assert len(engine._plan_cache) == 2


class TestExplain:
    def test_explain_renders_routing_and_caches(self, scenario):
        svc = ShardedWeakInstanceService.from_state(scenario.state, scenario.fds)
        report = svc.explain("project(H R, select(C=CS101, [C H R]))")
        text = report.render()
        assert "via shards (CHR)" in text
        assert "pushed: C='CS101'" in text
        assert "result miss" in text
        assert report.rows == len(report.result)
        again = svc.explain("project(H R, select(C=CS101, [C H R]))")
        assert again.result_cache_hit and again.plan_cache_hit
        assert "result hit" in again.render()

    def test_explain_shows_the_plan_shards(self, scenario):
        svc = ShardedWeakInstanceService.from_state(scenario.state, scenario.fds)
        report = svc.explain("[C T]")
        # CT stores the target; the other schemes' rows reach T through
        # a lookup in CT, so pruning leaves CT alone
        assert "via shards (CT)" in report.render()
        assert report.participants == ("CT",)

    def test_explain_residual_filter(self, scenario):
        svc = WeakInstanceService.from_state(scenario.state, scenario.fds)
        report = svc.explain("select(R>300, [C H R])")
        assert "residual: R>300" in report.render()

    def test_explain_on_durable_service(self, scenario, tmp_path):
        with DurableShardedService(
            scenario.schema, scenario.fds, tmp_path / "d"
        ) as svc:
            svc.load(scenario.state)
            report = svc.explain("select(C=CS101, [C S])")
            assert "via shards (CS)" in report.render()


# ---------------------------------------------------------------------------
# the filtered-scan kernel against the unfiltered window


@pytest.mark.parametrize("seed", range(4))
def test_total_projection_matching_equals_filtered_projection(seed):
    schema, fds = disjoint_star_schema(3, satellites=2)
    state = random_satisfying_state(schema, fds, 40, seed=seed, domain_size=6)
    svc = WeakInstanceService.from_state(state, fds)
    tableau = svc.representative()
    for scheme in schema:
        target = scheme.attributes
        full = tableau.total_projection(target)
        for t in list(full)[:5]:
            for attr in target:
                bindings = ((attr, t.value(attr)),)
                got = tableau.total_projection_matching(target, bindings)
                want = full.select_eq(**{attr: t.value(attr)})
                assert got == want
        # a value the column has never seen: empty, no row scan
        missing = tableau.total_projection_matching(
            target, ((target.names[0], "no-such-value"),)
        )
        assert missing == RelationInstance(target)


def test_query_errors_are_query_errors(scenario):
    svc = WeakInstanceService.from_state(scenario.state, scenario.fds)
    with pytest.raises(QueryError):
        svc.query("select(C=CS101")
    with pytest.raises(QueryError):
        svc.query("[C NOPE]")
    with pytest.raises(QueryError):
        svc.query(scan("C T").project("H"))
