"""The program call graph (a global, always-resident object)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .program import Program


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
    in step and drops the reachability memo.
    """

    #: Edges one :meth:`is_recursive` search may walk before it gives
    #: up and assumes the worst.
    RECURSION_SEARCH_LIMIT = 10000

    def __init__(self) -> None:
        self.nodes: Dict[str, CallGraphNode] = {}
        #: Routines :meth:`is_recursive` called recursive because the
        #: search ran into its limit, not because it found a cycle.
        self.assumed_recursive: Set[str] = set()
        # Memo over the current edge set: distinct callees per node,
        # and the answer per routine already asked about.
        self._callees: Optional[Dict[str, List[str]]] = None
        self._recursive: Dict[str, bool] = {}

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
        self._callees = None
        self._recursive.clear()
        self.assumed_recursive.clear()

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
        """True if ``name`` can reach itself through call edges, or the
        search for that gave up (see :attr:`assumed_recursive`)."""
        answer = self._recursive.get(name)
        if answer is None:
            answer = self._recursive[name] = self._reaches_itself(name)
        return answer

    def _reaches_itself(self, name: str) -> bool:
        callees = self._callees
        if callees is None:
            callees = self._callees = {
                node.name: node.callees() for node in self.nodes.values()
            }
        stack = [name]
        seen = set()
        steps = 0
        while stack:
            for callee in callees.get(stack.pop(), ()):
                steps += 1
                if steps > self.RECURSION_SEARCH_LIMIT:
                    self.assumed_recursive.add(name)
                    return True  # assume the worst on huge graphs
                if callee == name:
                    return True
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return False

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
