"""Per-routine profile views used inside the optimizer.

The :class:`ProfileDatabase` is immutable input; transforms change the
CFG, so the optimizer works on a mutable *view* of the counts that the
transforms keep consistent (inlining scales the callee's counts into
the caller, block merging keeps the survivor's count, etc.).

When no dynamic profile exists the view falls back to static estimates
from loop nesting depth -- the paper's non-PBO mode, where "heuristics
drive the compiler to thoroughly optimize all routines".
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..ir.routine import Routine
from ..profiles.database import RoutineProfile
from .analysis.loops import loop_depths

#: Static weight assumed per loop-nesting level when profiles are absent.
STATIC_LOOP_WEIGHT = 10


class ProfileView:
    """Mutable block/edge counts for one routine under optimization."""

    def __init__(
        self,
        routine_name: str,
        block_counts: Optional[Dict[str, int]] = None,
        edge_counts: Optional[Dict[Tuple[str, str], int]] = None,
        is_static_estimate: bool = False,
        stale: bool = False,
    ) -> None:
        self.routine_name = routine_name
        self.block_counts: Dict[str, int] = dict(block_counts or {})
        self.edge_counts: Dict[Tuple[str, str], int] = dict(edge_counts or {})
        #: True when counts are loop-depth guesses, not measurements.
        self.is_static_estimate = is_static_estimate
        self.stale = stale

    # -- Constructors -----------------------------------------------------------

    @staticmethod
    def from_profile(profile: RoutineProfile) -> "ProfileView":
        return ProfileView(
            profile.name,
            block_counts=profile.block_counts,
            edge_counts=profile.edge_counts,
            stale=profile.stale,
        )

    @staticmethod
    def static_estimate(routine: Routine) -> "ProfileView":
        depths = loop_depths(routine)
        counts = {
            label: STATIC_LOOP_WEIGHT ** min(depth, 6)
            for label, depth in depths.items()
        }
        return ProfileView(routine.name, counts, is_static_estimate=True)

    def copy(self) -> "ProfileView":
        return ProfileView(
            self.routine_name, self.block_counts, self.edge_counts,
            self.is_static_estimate, self.stale,
        )

    # -- Queries ------------------------------------------------------------------

    def count(self, label: str) -> int:
        return self.block_counts.get(label, 0)

    def edge(self, from_label: str, to_label: str) -> int:
        exact = self.edge_counts.get((from_label, to_label))
        if exact is not None:
            return exact
        # Fallback: bound by the endpoint counts.
        return min(self.count(from_label), self.count(to_label))

    def entry_count(self, routine: Routine) -> int:
        return self.count(routine.entry.label)

    # -- Maintenance by transforms -----------------------------------------------

    def rename_block(self, old: str, new: str) -> None:
        if old in self.block_counts:
            self.block_counts[new] = self.block_counts.pop(old)
        for (f, t), count in list(self.edge_counts.items()):
            nf = new if f == old else f
            nt = new if t == old else t
            if (nf, nt) != (f, t):
                del self.edge_counts[(f, t)]
                self.edge_counts[(nf, nt)] = count

    def drop_block(self, label: str) -> None:
        self.block_counts.pop(label, None)
        for key in [k for k in self.edge_counts if label in k]:
            del self.edge_counts[key]

    def set_count(self, label: str, count: int) -> None:
        self.block_counts[label] = count

    def set_edge(self, from_label: str, to_label: str, count: int) -> None:
        self.edge_counts[(from_label, to_label)] = count

    def merge_blocks(self, survivor: str, absorbed: str) -> None:
        """``absorbed`` was appended to ``survivor`` (straight-line merge)."""
        self.drop_block(absorbed)

    def splice_scaled(
        self,
        callee_view: "ProfileView",
        label_map: Dict[str, str],
        site_weight: int,
        callee_entry: int,
    ) -> None:
        """Fold an inlined callee's counts into this view.

        Each callee block count is scaled by site_weight/callee_entry
        (how often this particular site accounted for the callee's
        executions).
        """
        for old_label, new_label in label_map.items():
            raw = callee_view.count(old_label)
            if callee_entry > 0:
                scaled = (raw * site_weight) // callee_entry
            else:
                scaled = 0
            self.block_counts[new_label] = scaled
        for (f, t), count in callee_view.edge_counts.items():
            if f in label_map and t in label_map:
                if callee_entry > 0:
                    scaled = (count * site_weight) // callee_entry
                else:
                    scaled = 0
                self.edge_counts[(label_map[f], label_map[t])] = scaled

    def __repr__(self) -> str:
        kind = "static" if self.is_static_estimate else "measured"
        return "<ProfileView %s (%s, %d blocks)>" % (
            self.routine_name,
            kind,
            len(self.block_counts),
        )
