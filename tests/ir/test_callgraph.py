"""Unit tests for the call graph."""

from repro.frontend import compile_sources
from repro.ir.callgraph import CallGraph, CallGraphNode

SOURCES = {
    "m1": """
func leaf(x) { return x + 1; }
func middle(x) { return leaf(x) + leaf(x + 1); }
""",
    "m2": """
func recur(n) {
    if (n <= 0) { return 0; }
    return recur(n - 1) + 1;
}
func mutual_a(n) { if (n <= 0) { return 0; } return mutual_b(n - 1); }
func mutual_b(n) { return mutual_a(n); }
func main() {
    return middle(3) + recur(2) + mutual_a(2);
}
""",
}


def graph():
    return CallGraph.build(compile_sources(SOURCES))


class TestBuild:
    def test_nodes_and_modules(self):
        g = graph()
        assert g.node("leaf").module_name == "m1"
        assert g.node("main").module_name == "m2"
        assert "middle" in g

    def test_call_sites(self):
        g = graph()
        sites = g.node("middle").call_sites
        assert len(sites) == 2
        assert all(site.callee == "leaf" for site in sites)

    def test_caller_names(self):
        g = graph()
        assert g.node("leaf").caller_names == ["middle"]
        assert "main" in g.node("middle").caller_names

    def test_callees_dedup(self):
        g = graph()
        assert g.node("middle").callees() == ["leaf"]


class TestRecursion:
    def test_direct_recursion(self):
        assert graph().is_recursive("recur")

    def test_mutual_recursion(self):
        g = graph()
        assert g.is_recursive("mutual_a")
        assert g.is_recursive("mutual_b")

    def test_non_recursive(self):
        g = graph()
        assert not g.is_recursive("leaf")
        assert not g.is_recursive("middle")
        assert not g.is_recursive("main")


def reaches_itself_by_fresh_search(graph, name, limit=10000):
    """The un-memoized search ``is_recursive`` used to run per query."""
    stack = [name]
    seen = set()
    steps = 0
    while stack:
        node = graph.nodes.get(stack.pop())
        if node is None:
            continue
        for callee in node.callees():
            steps += 1
            if steps > limit:
                return True
            if callee == name:
                return True
            if callee not in seen:
                seen.add(callee)
                stack.append(callee)
    return False


class TestRecursionMemo:
    def synth_graph(self):
        from repro.synth import WorkloadConfig, generate

        app = generate(WorkloadConfig(
            "cg", n_modules=6, routines_per_module=5, n_features=3,
            dispatch_count=20, input_size=8, seed=5,
        ))
        return CallGraph.build(compile_sources(app.sources))

    def test_memo_answers_what_a_fresh_search_answers(self):
        for g in (graph(), self.synth_graph()):
            for _ in range(2):  # second round is served from the memo
                for name in g.nodes:
                    assert g.is_recursive(name) == (
                        reaches_itself_by_fresh_search(g, name)
                    ), name
            assert not g.assumed_recursive

    def test_new_edge_drops_the_memo(self):
        g = graph()
        assert not g.is_recursive("leaf")
        assert not g.is_recursive("middle")
        g.add_site("leaf", "entry0", 0, "middle")  # leaf -> middle -> leaf
        assert g.is_recursive("leaf")
        assert g.is_recursive("middle")
        assert "leaf" in g.node("middle").caller_names

    def test_edges_of_a_late_node_drop_the_memo(self):
        g = graph()
        g.add_site("leaf", "entry0", 0, "late")  # callee not defined yet
        assert not g.is_recursive("leaf")
        g.nodes["late"] = CallGraphNode("late", "m3")
        g.add_site("late", "entry0", 0, "leaf")
        assert g.is_recursive("leaf")

    def test_search_limit_assumes_recursive_and_says_so(self):
        g = graph()
        g.RECURSION_SEARCH_LIMIT = 2
        for name in g.nodes:
            assert g.is_recursive(name) == reaches_itself_by_fresh_search(
                g, name, limit=2
            ), name
        # main walks more than two edges without meeting itself.
        assert g.is_recursive("main")
        assert g.assumed_recursive == {"main"}
        # Found cycles and short exhaustive searches are not assumptions.
        assert g.is_recursive("recur") and not g.is_recursive("leaf")


class TestOrdering:
    def test_topo_bottom_up(self):
        order = graph().topo_order_bottom_up()
        assert order.index("leaf") < order.index("middle")
        assert order.index("middle") < order.index("main")

    def test_topo_contains_all(self):
        g = graph()
        assert sorted(g.topo_order_bottom_up()) == sorted(g.nodes)

    def test_ranked_sites_deterministic(self):
        g = graph()
        weights = {site.key(): 10 for site in g.all_sites()}
        g.attach_weights(weights)
        ranked1 = [s.key() for s in g.sites_ranked_by_weight()]
        ranked2 = [s.key() for s in graph_with_weights(weights)]
        assert ranked1 == ranked2

    def test_attach_weights_and_total(self):
        g = graph()
        sites = list(g.all_sites())
        weights = {site.key(): i for i, site in enumerate(sites)}
        g.attach_weights(weights)
        assert g.total_call_weight() == sum(range(len(sites)))
        ranked = g.sites_ranked_by_weight()
        assert ranked[0].weight == len(sites) - 1


def graph_with_weights(weights):
    g = graph()
    g.attach_weights(weights)
    return g.sites_ranked_by_weight()
