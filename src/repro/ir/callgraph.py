"""The program call graph (a global, always-resident object)."""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .program import Program


def strongly_connected_components(
    successors: Mapping[str, Sequence[str]]
) -> List[List[str]]:
    """Tarjan's condensation of ``{name: successors}``, iteratively.

    Components come out successors-first (a component is emitted only
    after every component it can reach), which for a call graph is
    callees before callers.  Successors that are not keys -- callees
    outside the unit -- are not part of the graph.  Linear in nodes
    plus edges.
    """
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    for root in successors:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work: List[Tuple[str, Iterator[str]]] = [
            (root, iter(successors[root]))
        ]
        while work:
            name, pending = work[-1]
            for succ in pending:
                if succ not in successors:
                    continue
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors[succ])))
                    break
                if succ in on_stack and index[succ] < low[name]:
                    low[name] = index[succ]
            else:
                work.pop()
                if work and low[name] < low[work[-1][0]]:
                    low[work[-1][0]] = low[name]
                if low[name] == index[name]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == name:
                            break
                    components.append(component)
    return components


class CallSite:
    """One static call site: caller routine + position + callee name.

    ``weight`` is the dynamic call count once a profile is attached
    (zero otherwise); selectivity ranks sites by this weight.
    """

    __slots__ = ("caller", "block_label", "instr_index", "callee", "weight")

    def __init__(
        self,
        caller: str,
        block_label: str,
        instr_index: int,
        callee: str,
        weight: int = 0,
    ) -> None:
        self.caller = caller
        self.block_label = block_label
        self.instr_index = instr_index
        self.callee = callee
        self.weight = weight

    def key(self) -> Tuple[str, str, int]:
        return (self.caller, self.block_label, self.instr_index)

    def __repr__(self) -> str:
        return "<CallSite %s:%s[%d] -> %s (w=%d)>" % (
            self.caller,
            self.block_label,
            self.instr_index,
            self.callee,
            self.weight,
        )


class CallGraphNode:
    """Per-routine call-graph node."""

    __slots__ = ("name", "module_name", "call_sites", "caller_names")

    def __init__(self, name: str, module_name: str) -> None:
        self.name = name
        self.module_name = module_name
        #: Outgoing call sites, in routine order.
        self.call_sites: List[CallSite] = []
        #: Names of routines that call this one (deduplicated, ordered).
        self.caller_names: List[str] = []

    def callees(self) -> List[str]:
        seen: Dict[str, None] = {}
        for site in self.call_sites:
            seen.setdefault(site.callee)
        return list(seen)

    def __repr__(self) -> str:
        return "<CallGraphNode %s (%d sites)>" % (self.name, len(self.call_sites))


class CallGraph:
    """Static call graph with optional profile weights on call sites.

    Add edges through :meth:`add_site` only: it keeps ``caller_names``
    in step and drops the recursion memo.
    """

    def __init__(self) -> None:
        self.nodes: Dict[str, CallGraphNode] = {}
        # Memo over the current edge set: every routine on a cycle.
        self._recursive: Optional[Set[str]] = None

    @staticmethod
    def build(program: "Program") -> "CallGraph":
        graph = CallGraph()
        for module in program.module_list():
            for routine in module.routine_list():
                graph.nodes[routine.name] = CallGraphNode(routine.name, module.name)
        for module in program.module_list():
            for routine in module.routine_list():
                for block_label, index, callee in routine.call_sites():
                    graph.add_site(routine.name, block_label, index, callee)
        return graph

    def add_site(
        self, caller: str, block_label: str, instr_index: int, callee: str
    ) -> None:
        """Append a call site to ``caller``'s node (which must exist)."""
        self.nodes[caller].call_sites.append(
            CallSite(caller, block_label, instr_index, callee)
        )
        target = self.nodes.get(callee)
        if target is not None and caller not in target.caller_names:
            target.caller_names.append(caller)
        self._recursive = None

    # -- Queries ------------------------------------------------------------

    def node(self, name: str) -> CallGraphNode:
        return self.nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    def all_sites(self) -> Iterator[CallSite]:
        for node in self.nodes.values():
            for site in node.call_sites:
                yield site

    def sites_ranked_by_weight(self) -> List[CallSite]:
        """All call sites, heaviest first; ties broken deterministically.

        This is the ordering coarse-grained selectivity uses (paper §5):
        never by object identity or address, so compiles are reproducible.
        """
        return sorted(
            self.all_sites(),
            key=lambda s: (-s.weight, s.caller, s.block_label, s.instr_index),
        )

    def is_recursive(self, name: str) -> bool:
        """True if ``name`` can reach itself through call edges."""
        if self._recursive is None:
            self._recursive = self._routines_on_cycles()
        return name in self._recursive

    def _routines_on_cycles(self) -> Set[str]:
        """One SCC pass: members of a multi-node component, or self-callers."""
        callees = {node.name: node.callees() for node in self.nodes.values()}
        recursive: Set[str] = set()
        for component in strongly_connected_components(callees):
            if len(component) > 1:
                recursive.update(component)
            elif component[0] in callees[component[0]]:
                recursive.add(component[0])
        return recursive

    def topo_order_bottom_up(self) -> List[str]:
        """Routine names ordered callees-before-callers (cycles broken).

        The inliner processes routines bottom-up so that inlined bodies
        are already optimized.
        """
        state: Dict[str, int] = {}  # 0=unvisited 1=in-stack 2=done
        order: List[str] = []

        for root in self.nodes:
            if state.get(root, 0) == 2:
                continue
            stack: List[Tuple[str, Iterator[str]]] = []
            state[root] = 1
            stack.append((root, iter(self.nodes[root].callees())))
            while stack:
                name, it = stack[-1]
                advanced = False
                for callee in it:
                    if callee in self.nodes and state.get(callee, 0) == 0:
                        state[callee] = 1
                        stack.append((callee, iter(self.nodes[callee].callees())))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    state[name] = 2
                    order.append(name)
        return order

    def attach_weights(self, weight_of: "Dict[Tuple[str, str, int], int]") -> None:
        """Set call-site weights from a {site key: count} mapping."""
        for site in self.all_sites():
            site.weight = weight_of.get(site.key(), 0)

    def total_call_weight(self) -> int:
        return sum(site.weight for site in self.all_sites())

    def __repr__(self) -> str:
        return "<CallGraph (%d nodes)>" % len(self.nodes)
