"""Timers at layer boundaries, installed by wrapping names the package calls through.

Nothing under ``src/`` changes: a probe swaps a module attribute (or a
class method) for a timing wrapper and puts the original back when the
pass ends. Each span is keyed by the phase it ran in (``play``,
``verify``, ``bounds`` or ``other``), so a function called from both play
and verify, such as the T_0 build, is split between them.

Every span also counts its calls. A wrapper that stops firing after a
refactor shows up as zero calls, not as a speed-up.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace

from workloads import current_rss_mib

# traced play must be covered by the layer spans plus the measured engine parts
ACCOUNTED_SHARE_RANGE = (0.95, 1.01)

# (name, unit) of the per-layer metrics in report order; BENCHMARK.json lists the same names
PER_LAYER = (
    ("tree.initial_build_play_s", "s"),
    ("tree.initial_build_verify_s", "s"),
    ("tree.initial_build_calls", "count"),
    ("tree.attach_s", "s"),
    ("tree.attach_calls", "count"),
    ("tree.attached_vertices", "count"),
    ("strategies.next_moves_s", "s"),
    ("strategies.calls", "count"),
    ("strategies.agents_moved", "count"),
    ("strategies.move_ratio", "ratio"),
    ("adversary.reveal_s", "s"),
    ("adversary.reveal_calls", "count"),
    ("adversary.checkpoint_s", "s"),
    ("adversary.candidates", "count"),
    ("adversary.selected", "count"),
    ("game.play_s", "s"),
    ("game.engine_self_s", "s"),
    ("game.commit_s", "s"),
    ("game.commit_calls", "count"),
    ("game.view_s", "s"),
    ("game.tree_copy_s", "s"),
    ("game.rounds", "count"),
    ("game.newly_visited", "count"),
    ("game.transcript_write_s", "s"),
    ("game.transcript_read_s", "s"),
    ("game.rss_after_play_mb", "MiB"),
    ("game.rss_after_write_mb", "MiB"),
    ("verify.verify_s", "s"),
    ("verify.calls", "count"),
    ("verify.claims_passed", "count"),
    ("verify.claims_failed", "count"),
    ("offline.bounds_s", "s"),
    ("offline.euler_ub", "count"),
    ("trace.overhead_s", "s"),
    ("trace.accounted_share", "ratio"),
)


class Probe:
    """Per-pass accumulators plus the wrappers that feed them.

    The untraced probe times only the calls the benchmark makes itself and
    the sweep's own calls into play and verify: two clock reads per game.
    ``traced=True`` adds the layer wrappers inside play and verify.
    """

    def __init__(self, tx, traced: bool):
        self.tx = tx
        self.traced = traced
        self.phase = "other"
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(float)
        self._saved = []

    # -- installing and removing wrappers ------------------------------------

    def __enter__(self) -> "Probe":
        tx = self.tx
        play, verify = tx.sweep.run_adversary_game, tx.sweep.verify_transcript
        self._swap(tx.sweep, "run_adversary_game", lambda *a, **kw: self.play(play, *a, **kw))
        self._swap(tx.sweep, "verify_transcript", lambda *a, **kw: self.verify(verify, *a, **kw))
        if self.traced:
            self._wrap(tx.sweep, "euler_schedule", "bounds", self._count_euler)
            self._wrap(tx.adversary, "make_path_star", "build")
            self._wrap(tx.game, "attach_path_with_star", "attach", self._count_attached)
            self._wrap(tx.game, "_commit_moves", "commit_moves")
            self._wrap(tx.game, "_commit_attachments", "commit_attachments")
            for method in ("__init__", "observe_moves", "observe_attachments"):
                self._wrap(tx.game.ExplorerView, method, "view")
            self._wrap(tx.tree.RootedTree, "copy", "copy")
            self._wrap(tx.tree.RootedTree, "stats", "stats")
            self._swap(tx.runner, "make_explorer", self._explorer_factory(tx.runner.make_explorer))
            self._swap(tx.runner, "CheckpointRevealer", self._revealer_factory(tx.runner.CheckpointRevealer))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, span: str, on_result=None) -> None:
        self._swap(owner, attr, self._timer(span, getattr(owner, attr), on_result))

    def _timer(self, span: str, fn, on_result=None):
        probe = self

        def timed(*args, **kwargs):
            key = f"{span}.{probe.phase}"
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                probe.time[key] += perf_counter() - start
                probe.calls[key] += 1
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def _count_attached(self, created) -> None:
        self.counts[f"attached_vertices.{self.phase}"] += len(created)

    def _count_euler(self, schedule) -> None:
        self.counts["euler_ub"] += schedule.rounds

    def _explorer_factory(self, make_explorer):
        def make(*args, **kwargs):
            inner = make_explorer(*args, **kwargs)
            return SimpleNamespace(name=inner.name, next_moves=self._timer("explorer", inner.next_moves))

        return make

    def _revealer_factory(self, revealer_class):
        probe = self

        def make(params):
            inner = revealer_class(params)

            def reveal(state, t):
                start = perf_counter()
                attachments, record = inner.reveal(state, t)
                elapsed = perf_counter() - start
                probe.time["reveal.play"] += elapsed
                probe.calls["reveal.play"] += 1
                if record is not None:
                    probe.time["checkpoint.play"] += elapsed
                    probe.calls["checkpoint.play"] += 1
                    probe.counts["candidates"] += len(record.K)
                    probe.counts["selected"] += len(record.S)
                return attachments, record

            return SimpleNamespace(name=inner.name, initial_tree=inner.initial_tree, reveal=reveal)

        return make

    # -- the phases the benchmark itself drives -------------------------------

    def _phase(self, phase: str, fn, args, kwargs):
        self.phase = phase
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.time[phase] += perf_counter() - start
            self.calls[phase] += 1
            self.phase = "other"

    def play(self, fn, *args, **kwargs):
        transcript = self._phase("play", fn, args, kwargs)
        if self.traced:
            self.note("rss_after_play_mib", current_rss_mib())
            self._count_rounds(transcript)
        return transcript

    def verify(self, fn, *args, **kwargs):
        report = self._phase("verify", fn, args, kwargs)
        if self.traced:
            self.counts["claims_passed"] += report.claims_passed
            self.counts["claims_failed"] += report.claims_failed
        return report

    def bounds(self, fn, *args, **kwargs):
        report = self._phase("bounds", fn, args, kwargs)
        self.counts["euler_ub"] += report.euler_ub
        return report

    def note(self, name: str, value: float) -> None:
        """Keep the largest value seen in this pass."""
        self.peaks[name] = max(self.peaks[name], value)

    def _count_rounds(self, transcript) -> None:
        # counted after play returns, so it adds nothing to the play span
        k = transcript.params["k"]
        previous = (0,) * k
        moved = newly = 0
        for rec in transcript.rounds:
            if rec.moves != previous:
                moved += sum(1 for a, b in zip(rec.moves, previous) if a != b)
            previous = rec.moves
            newly += rec.newly_visited
        self.counts["rounds"] += len(transcript.rounds)
        self.counts["agent_rounds"] += k * len(transcript.rounds)
        self.counts["agents_moved"] += moved
        self.counts["newly_visited"] += newly


def layer_values(probe, result) -> dict:
    """One traced pass split by layer; times in wall seconds, all spans of play disjoint."""
    t, calls, counts = probe.time, probe.calls, probe.counts
    play = t["play"]
    spans = t["build.play"] + t["attach.play"] + t["explorer.play"] + t["reveal.play"]
    commit = t["commit_moves.play"] + t["commit_attachments.play"] - t["attach.play"]
    engine_parts = commit + t["view.play"] + t["copy.play"] + t["stats.play"]
    return {
        "tree.initial_build_play_s": t["build.play"],
        "tree.initial_build_verify_s": t["build.verify"],
        "tree.initial_build_calls": calls["build.play"] + calls["build.verify"],
        "tree.attach_s": t["attach.play"],
        "tree.attach_calls": calls["attach.play"],
        "tree.attached_vertices": counts["attached_vertices.play"],
        "strategies.next_moves_s": t["explorer.play"],
        "strategies.calls": calls["explorer.play"],
        "strategies.agents_moved": counts["agents_moved"],
        "strategies.move_ratio": counts["agents_moved"] / counts["agent_rounds"] if counts["agent_rounds"] else 0.0,
        "adversary.reveal_s": t["reveal.play"],
        "adversary.reveal_calls": calls["reveal.play"],
        "adversary.checkpoint_s": t["checkpoint.play"],
        "adversary.candidates": counts["candidates"],
        "adversary.selected": counts["selected"],
        "game.play_s": play,
        "game.engine_self_s": play - spans,
        "game.commit_s": commit,
        "game.commit_calls": calls["commit_moves.play"],
        "game.view_s": t["view.play"],
        "game.tree_copy_s": t["copy.play"],
        "game.rounds": counts["rounds"],
        "game.newly_visited": counts["newly_visited"],
        "game.transcript_write_s": result.wall.get("run:write", 0.0),
        "game.transcript_read_s": result.wall.get("verify:read", 0.0),
        "game.rss_after_play_mb": probe.peaks["rss_after_play_mib"],
        "game.rss_after_write_mb": probe.peaks["rss_after_write_mib"],
        "verify.verify_s": t["verify"],
        "verify.calls": calls["verify"],
        "verify.claims_passed": counts["claims_passed"],
        "verify.claims_failed": counts["claims_failed"],
        "offline.bounds_s": t["bounds"] + t["bounds.other"],
        "offline.euler_ub": counts["euler_ub"],
        "trace.accounted_share": (spans + engine_parts) / play if play else 0.0,
    }


def check_trace(workload: str, result) -> None:
    """Layer spans must not overlap and must cover traced play, or the split is wrong."""
    layers = result.layers
    if workload == "sweep-grid" or not result.times:
        return
    low, high = ACCOUNTED_SHARE_RANGE
    share = layers["trace.accounted_share"]
    if layers["game.engine_self_s"] < 0 or not low <= share <= high:
        result.fail(
            result.cells,
            f"{workload}: trace accounting: spans plus engine parts cover {share:.3f} of traced "
            f"play (allowed {low}..{high}), engine self {layers['game.engine_self_s']:.3f} s",
        )
