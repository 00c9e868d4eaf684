"""Transcript verification for adversary games, in three parts.

``Evidence`` is an observer with the hooks that ``game.play`` calls, in
a live game or in ``game.replay``. ``moved`` notes whether the round's
new visits break the speed limit or the open root-passage window, and
the positions when a checkpoint fires; ``attached`` opens that
checkpoint's window over its gadget leaves and notes the gadget vertex
count and the height.

``verify_transcript`` feeds an Evidence through ``replay``, which plays
the recorded moves (never the strategies) against a fresh
``CheckpointRevealer`` and checks each round's attachments and each
checkpoint record against the revealer's. Given the Evidence that watched
the ``play`` which wrote a transcript, as the sweep does,
``verify_transcript`` skips the replay and its cross-check.

``_evaluate`` turns the evidence, the checkpoint records and the params
into the report. It is the one place that decides each claim, with exact
integer comparisons:

* claim1 (height growth): after checkpoint i the tree height is at most
  L*(i+1); exactly that in repaired mode whenever something was selected.
* claim2 (survivor propagation): the next checkpoint finds exactly one
  candidate branch per previously selected vertex, so |K_{i+1}| = |S_i|;
  asserted in strict mode only when every selected vertex had agents
  nearby (the zero-agent case is the documented gap).
* claim3 (selection envelope): alpha^i * n/(2L) <= |S_i| <= (2alpha)^i * n/(2L);
  the lower bound is asserted in repaired mode, the upper in both.
* root passage: a gadget leaf visited before the next checkpoint must
  have been reached by an agent that already sat in its branch when the
  gadget was created.
* speed limit: no vertex is first visited in fewer rounds than its depth.
* the round floor, the final height, and the vertex budget.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass
from functools import partial
from itertools import accumulate, chain, compress
from operator import add, sub

from ..adversary import AdversaryParams, CheckpointRevealer, params_from_transcript
from ..game import CheckpointRecord, GameState, RoundRecord, Transcript, replay


@dataclass(frozen=True)
class CheckResult:
    """One verified statement with the numbers that were compared."""

    name: str
    checkpoint: int | None
    ok: bool
    asserted: bool  # unasserted results are informational (vacuous or mode-exempt)
    note: str
    values: dict

    def to_json_obj(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    mode: str
    checks: list[CheckResult]
    budget: dict
    claims_passed: int = 0
    claims_failed: int = 0

    def finalize(self) -> "VerificationReport":
        self.claims_passed = sum(1 for c in self.checks if c.asserted and c.ok)
        self.claims_failed = sum(1 for c in self.checks if c.asserted and not c.ok)
        return self

    @property
    def ok(self) -> bool:
        return self.claims_failed == 0

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode,
            "claims_passed": self.claims_passed,
            "claims_failed": self.claims_failed,
            "ok": self.ok,
            "checks": [c.to_json_obj() for c in self.checks],
            "budget": self.budget,
        }


class Evidence:
    """The observer that gathers what the claims need, round by round.

    ``play`` feeds it live and ``replay`` feeds it a recorded game; it
    reads the state and the round record only, never a revealer.
    """

    def __init__(self, params: AdversaryParams):
        self.params = params
        self._level_of = {t: i + 1 for i, t in enumerate(params.checkpoints)}
        self.level: int | None = None  # the checkpoint the current round fires, if any
        self.height_after: dict[int, int] = {}
        self.positions_at: dict[int, tuple[int, ...]] = {}
        self.gadget_vertices: dict[int, int] = {}
        self.violations: dict[int, list[int]] = {}
        # (checkpoint, its gadget leaves, the round of the next checkpoint): the
        # leaves first visited before that round are checked for root passage;
        # only the latest checkpoint's window can be open
        self.window: tuple[int, frozenset[int], int] = (0, frozenset(), 0)
        self.speed_ok = True

    def moved(self, state: GameState, rec: RoundRecord) -> None:
        """Runs on the tree as it stood before the round's gadgets."""
        t = state.round
        newly = state.newly_visited
        if newly:
            if max(map(state.tree.depth.__getitem__, newly)) > t:
                self.speed_ok = False
            i, leaves, until = self.window
            if t < until and not leaves.isdisjoint(newly):
                self._check_passage(state, i, leaves & newly)
        i = self.level = self._level_of.get(t)
        if i is not None:
            self.positions_at[i] = state.positions
            self.violations[i] = []

    def _check_passage(self, state: GameState, i: int, early: frozenset[int]) -> None:
        """Checkpoint i's gadget leaves reached before the next checkpoint:
        each needs an arriving agent that already sat in the leaf's branch
        when checkpoint i fired, or it is a violation."""
        positions, before = state.positions, self.positions_at[i]
        branch = state.tree.branch
        # the root's branch is -1, so an agent that was on the root never counts
        reached = {
            positions[x]
            for x in compress(range(len(positions)), map(early.__contains__, positions))
            if branch[before[x]] == branch[positions[x]]
        }
        self.violations[i] += early - reached

    def attached(self, state: GameState, rec: RoundRecord, created: list[int]) -> None:
        i = self.level
        if i is None:
            return
        # ids are dense and each gadget creates its path, then its leaves, so
        # a gadget's leaves are the last leaf_count ids of its block
        counts = rec.attachments.leaf_count
        sizes = map(add, rec.attachments.path_len, counts)
        ends = list(accumulate(sizes, initial=state.tree.n - len(created)))
        del ends[0]
        leaves = frozenset(chain.from_iterable(map(range, map(sub, ends, counts), ends)))
        self.window = (i, leaves, self.params.checkpoint_round(i + 1))
        self.gadget_vertices[i] = len(created)
        self.height_after[i] = state.tree.height()


def _selected_a(rec: CheckpointRecord) -> list[int]:
    """The a-values of ``rec.S``, looked up in C; ``rec`` came from the
    revealer or matched its recomputation, so ``K`` is id-ascending and
    holds every vertex of ``S``."""
    return list(map(rec.a.__getitem__, map(partial(bisect_left, rec.K), rec.S)))


def verify_transcript(transcript: Transcript, evidence: Evidence | None = None) -> VerificationReport:
    """Evaluate every claim of a lemma transcript.

    Without ``evidence``, replay the transcript against a fresh
    ``CheckpointRevealer``, which checks its records; raises IntegrityError
    on tampering. With the Evidence that observed the ``play`` which wrote
    the transcript, only evaluate.
    """
    if evidence is None:
        params = params_from_transcript(transcript)
        evidence = Evidence(params)
        replay(transcript, CheckpointRevealer(params), evidence)
    return _evaluate(evidence, transcript)


def _evaluate(ev: Evidence, transcript: Transcript) -> VerificationReport:
    """The report on a game from its evidence, its checkpoint records and its
    outcome; the records are the checkpoints that fired, as ``play`` made them."""
    params = ev.params
    mode = params.mode
    repaired = mode == "repaired"
    checks: list[CheckResult] = []

    n, L, m = params.n, params.L, params.m
    records = {rec.i: rec for rec in transcript.checkpoints}
    levels = sorted(records)
    selected_a = {i: _selected_a(records[i]) for i in levels}

    for i in levels:
        rec = records[i]
        bound = L * (i + 1)
        height = ev.height_after[i]
        checks.append(
            CheckResult(
                name="claim1_height_upper",
                checkpoint=i,
                ok=height <= bound,
                asserted=True,
                note="height after checkpoint stays within L*(i+1)",
                values={"height": height, "bound": bound},
            )
        )
        if rec.S:
            checks.append(
                CheckResult(
                    name="claim1_height_exact",
                    checkpoint=i,
                    ok=height == bound,
                    asserted=repaired,
                    note="selection non-empty, so the new level exists",
                    values={"height": height, "bound": bound},
                )
            )

        if i + 1 <= m - 1:
            nxt = records.get(i + 1)
            min_a = min(selected_a[i], default=0)
            if nxt is None:
                checks.append(
                    CheckResult(
                        name="claim2_candidates_propagate",
                        checkpoint=i,
                        ok=True,
                        asserted=False,
                        note=f"checkpoint {i + 1} never fired (game ended or hit the cap)",
                        values={"S_i": len(rec.S)},
                    )
                )
            else:
                ok = len(nxt.K) == len(rec.S)
                vacuous = not repaired and min_a == 0
                checks.append(
                    CheckResult(
                        name="claim2_candidates_propagate",
                        checkpoint=i,
                        ok=ok,
                        asserted=not vacuous,
                        note="vacuous (a=0)" if vacuous else "|K_{i+1}| equals |S_i|",
                        values={"K_next": len(nxt.K), "S_i": len(rec.S), "min_a": min_a},
                    )
                )

        # selection envelope, compared via integers:
        # |S_i| >= alpha^i n/(2L)  <=>  |S|^m (2L)^(m-i) >= n^(m-i)
        # |S_i| <= (2alpha)^i n/(2L)  <=>  |S|^m (2L)^(m-i) <= 2^(im) n^(m-i)
        s = len(rec.S)
        lhs = s**m * (2 * L) ** (m - i)
        rhs = n ** (m - i)
        checks.append(
            CheckResult(
                name="claim3_selection_lower",
                checkpoint=i,
                ok=lhs >= rhs,
                asserted=repaired,
                note="selection count stays above the geometric floor",
                values={"S_i": s, "lhs": lhs, "rhs": rhs},
            )
        )
        checks.append(
            CheckResult(
                name="claim3_selection_upper",
                checkpoint=i,
                ok=lhs <= 2 ** (i * m) * rhs,
                asserted=True,
                note="selection count stays below the geometric ceiling",
                values={"S_i": s, "lhs": lhs, "rhs": 2 ** (i * m) * rhs},
            )
        )

        t_next = params.checkpoint_round(i + 1)
        violations = sorted(ev.violations[i])
        checks.append(
            CheckResult(
                name="root_passage_floor",
                checkpoint=i,
                ok=not violations,
                asserted=True,
                note="early gadget-leaf visits all came from inside the branch",
                values={
                    "leaves": sum(rec.gadgets.leaf_count),
                    "next_checkpoint": t_next,
                    "violations": violations[:10],
                },
            )
        )

    # -- final verdicts ------------------------------------------------------

    finished = transcript.outcome.finished
    final_round = transcript.outcome.final_round
    floor_ok = not (finished and final_round < params.round_floor)
    checks.append(
        CheckResult(
            name="round_floor",
            checkpoint=None,
            ok=floor_ok,
            asserted=repaired,
            note="game must not finish before the last checkpoint"
            + ("" if repaired else " (strict mode: known gap, informational)"),
            values={"final_round": final_round, "finished": finished, "floor": params.round_floor},
        )
    )

    all_fired = len(levels) == m - 1
    all_selected = all_fired and all(records[i].S for i in levels)
    final = transcript.outcome.final_stats  # replay checked it against the replayed tree
    final_height = final.height
    checks.append(
        CheckResult(
            name="final_height",
            checkpoint=None,
            ok=(final_height == L * m) if all_selected else (final_height <= L * m),
            asserted=repaired and all_selected,
            note="height L*m once every checkpoint selected something",
            values={"height": final_height, "target": L * m, "all_selected": all_selected},
        )
    )

    within_k = params.k <= params.max_k
    limit = params.budget_limit()
    checks.append(
        CheckResult(
            name="vertex_budget",
            checkpoint=None,
            ok=final.n <= limit,
            asserted=within_k,
            note="budget guaranteed only for teams within the bound"
            if not within_k
            else f"final size within the {mode} budget",
            values={"vertices": final.n, "limit": limit, "k": params.k, "max_k": params.max_k},
        )
    )

    checks.append(
        CheckResult(
            name="speed_limit",
            checkpoint=None,
            ok=ev.speed_ok,
            asserted=True,
            note="no vertex visited earlier than its depth",
            values={},
        )
    )

    budget = _budget_audit(ev, records, selected_a, final.n)
    return VerificationReport(mode=mode, checks=checks, budget=budget).finalize()


def _budget_audit(ev: Evidence, records: dict, selected_a: dict[int, list[int]], total_vertices: int) -> dict:
    """Term-by-term audit of the vertex-count chain.

    The initial star contributes ceil(n/(2L))*L + 1 <= n/2 + L + 1 vertices
    and each checkpoint i adds |S_i|*(L-1) path vertices plus
    L*(i+1)*multiplier star leaves. The three classical caps (L+1, the
    agent-weighted gadget term, the geometric path term) are each at most
    n/6 whenever k stays within the team bound and alpha <= 1/8; the
    repaired mode adds the zero-agent surcharge on top.
    """
    params = ev.params
    n, L, m = params.n, params.L, params.m
    alpha = float(params.alpha)
    agent_term = 0
    path_term = 0
    surcharge = 0
    for i, rec in records.items():
        agent_term += L * (i + 1) * sum(selected_a[i])
        path_term += len(rec.S) * (L - 1)
        if params.mode == "repaired":
            surcharge += L * (i + 1) * selected_a[i].count(0)
    return {
        "initial_vertices": params.branch_count * L + 1,
        "initial_bound": n / 2 + L + 1,
        "gadget_vertices_per_level": {str(i): ev.gadget_vertices[i] for i in sorted(records)},
        "agent_term": agent_term,
        "agent_term_bound": L * (m + 1) ** 2 * alpha * params.k,
        "path_term": path_term,
        "path_term_bound": 2 * alpha * n / (2 - 4 * alpha),
        "surcharge": surcharge,
        "surcharge_bound": 0.0 if params.mode == "strict" else 7 * n / 18,
        "n_over_6": n / 6,
        "total_vertices": total_vertices,
        "budget_limit": params.budget_limit(),
    }
