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


def reaches_itself_by_fresh_search(graph, name):
    """The search ``is_recursive`` used to run per routine asked about."""
    stack = [name]
    seen = set()
    while stack:
        node = graph.nodes.get(stack.pop())
        if node is None:
            continue
        for callee in node.callees():
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

    def test_a_graph_past_the_old_search_limit_is_answered_exactly(self):
        # A complete DAG: 150 routines, 11 175 edges, no cycle.  The
        # per-routine search used to stop after 10 000 edges and call
        # the first routines recursive.
        g = CallGraph()
        names = ["r%d" % i for i in range(150)]
        for name in names:
            g.nodes[name] = CallGraphNode(name, "m")
        for i, name in enumerate(names):
            for callee in names[i + 1:]:
                g.add_site(name, "entry0", 0, callee)
        assert sum(len(n.call_sites) for n in g.nodes.values()) > 10000
        assert not any(g.is_recursive(name) for name in names)
        g.add_site(names[-1], "entry0", 0, names[0])  # close the cycle
        assert all(g.is_recursive(name) for name in names)


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
