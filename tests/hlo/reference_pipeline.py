"""The exhaustive schedule the scalar pipeline used to run, kept as the spec.

``repro.hlo.passes.PassPipeline`` runs a pass after the first round
only when a kind of change that enables it has been reported since its
last run.  This module is the loop that replaced: every pass, in
order, round after round, until a whole round is quiet or
``max_pass_iterations`` is reached.  ``test_prop_scheduled_pipeline.py``
asserts the two leave every routine instruction for instruction the
same with the same change counts; nothing under ``src/`` imports this.
"""


class ReferencePipeline:
    def __init__(self, passes):
        self.passes = list(passes)

    def run_routine(self, routine, ctx):
        """Optimize one routine; returns total change count.  Counts
        changes and executions into ``ctx.stats`` under the names the
        scheduled pipeline uses (it has no skips)."""
        total_changes = 0
        stats = ctx.stats
        changed = False
        for _ in range(ctx.options.max_pass_iterations):
            changed = False
            for phase in self.passes:
                phase_changed = bool(phase.run(routine, ctx))
                stats.bump(phase.name, 1 if phase_changed else 0)
                stats.runs[phase.name] = stats.runs.get(phase.name, 0) + 1
                if phase_changed:
                    changed = True
                    total_changes += 1
            if not changed:
                break
        if changed:
            stats.capped.append(routine.name)
        return total_changes
