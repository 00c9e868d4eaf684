"""Verification: claim evaluation, tamper detection, budget audit."""

import hashlib
import json
import warnings

import pytest

from treexplore import (
    NO_GADGETS,
    ROOT,
    CheckpointRecord,
    CheckpointRevealer,
    Outcome,
    RoundRecord,
    Transcript,
    TreeStats,
    derive_params,
    fixed_tree_revealer,
    make_explorer,
    play,
    replay,
    revealer_of,
)
from treexplore.adversary import lemma_header
from treexplore.errors import IntegrityError
from treexplore.game import transcript_from_json, transcript_to_json
from treexplore.harness import verify
from treexplore.harness.cli import main
from treexplore.harness.runner import run_adversary_game
from treexplore.harness.verify import Evidence, params_from_transcript, verify_transcript

from conftest import gadgets_of, make_star, vertices_at_depth


@pytest.fixture(scope="module")
def small_idle_transcript():
    params = derive_params(4096, 1, 3, 541)
    return run_adversary_game(params, "idle", cap=50)


@pytest.fixture(scope="module")
def small_greedy_transcript():
    params = derive_params(4096, 1, 3, 541)
    return run_adversary_game(params, "greedy_frontier", cap=1000)


class TestVerify:
    def test_idle_run_all_claims_pass(self, small_idle_transcript):
        report = verify_transcript(small_idle_transcript)
        assert report.ok
        assert report.claims_failed == 0
        names = {c.name for c in report.checks}
        assert {
            "claim1_height_upper",
            "claim2_candidates_propagate",
            "claim3_selection_lower",
            "claim3_selection_upper",
            "root_passage_floor",
            "round_floor",
            "final_height",
            "vertex_budget",
        } <= names

    def test_greedy_run_all_claims_pass(self, small_greedy_transcript):
        report = verify_transcript(small_greedy_transcript)
        assert report.ok
        floor = next(c for c in report.checks if c.name == "round_floor")
        assert floor.values["final_round"] >= floor.values["floor"] == 3

    def test_checkpoint_values_carried_in_report(self, small_idle_transcript):
        report = verify_transcript(small_idle_transcript)
        lower = [c for c in report.checks if c.name == "claim3_selection_lower"]
        assert [c.checkpoint for c in lower] == [1, 2]
        assert all("lhs" in c.values and "rhs" in c.values for c in lower)

    def test_fixed_revealer_transcript_rejected(self):
        tr = play(make_explorer("idle", 1), fixed_tree_revealer(make_star(2)), 1, 3)
        with pytest.raises(IntegrityError):
            params_from_transcript(tr)

    def test_verification_is_deterministic(self, small_greedy_transcript):
        a = json.dumps(verify_transcript(small_greedy_transcript).to_json_obj())
        b = json.dumps(verify_transcript(small_greedy_transcript).to_json_obj())
        assert a == b


# sha256 of the concatenated verify stdout (the report as json.dumps(..., indent=2)
# plus a newline) of idle, single_dfs, phase_bfs (k = n) and greedy_frontier, in
# repaired then strict mode, each game played in memory
REPORT_DIGESTS = {
    "small": ((4096, 1, 3, 541), 1000, "a462bd7a24b363cdc419a87abbd2b9b268ccc2f40903fbefec29736ab8da5fe6"),
    "long_segments": ((16384, 4, 3, 541), 100, "c9decaab04aaef7a8c1176791010086cf564fab29d8f4c57c0a0353f30a71101"),
}


@pytest.mark.parametrize("instance", sorted(REPORT_DIGESTS))
def test_reports_are_pinned(instance):
    (n, L, m, k), cap, digest = REPORT_DIGESTS[instance]
    sha = hashlib.sha256()
    for mode in ("repaired", "strict"):
        for explorer in ("idle", "single_dfs", "phase_bfs", "greedy_frontier"):
            params = derive_params(n, L, m, n if explorer == "phase_bfs" else k, mode=mode, warn=False)
            report = verify_transcript(run_adversary_game(params, explorer, cap=cap))
            sha.update((json.dumps(report.to_json_obj(), indent=2) + "\n").encode())
    assert sha.hexdigest() == digest


class TestClaimsDecidedPerRound:
    """The evidence observer decides the speed limit and the root-passage
    floor round by round, fed live by play or by verify's replay. No legal
    game breaks either, so these tests hand the observer a round that does."""

    @pytest.fixture(params=["play", "replay"])
    def observed(self, request):
        """The observer, end state and checkpoint records of an idle long-segment
        game stopped at round 11: checkpoint 1 fired at round 4, checkpoint 2
        would fire at 12. The observer watched the play, or verify's replay."""
        params = derive_params(16384, 4, 3, 541)
        if request.param == "play":
            rp = Evidence(params)
            tr = run_adversary_game(params, "idle", cap=11, observer=rp)
            return rp, tr.final_state, tr.checkpoints
        tr = run_adversary_game(params, "idle", cap=11)
        rp = Evidence(params)
        return rp, replay(tr, CheckpointRevealer(params), rp), tr.checkpoints

    @staticmethod
    def _arrive(rp, state, t, v, *others):
        """Round ``t`` by hand: agent 0 steps onto ``v`` and agents 1, 2, ... onto
        ``others``, all visited for the first time."""
        state.round = t
        state.positions = (v, *others, *state.positions[1 + len(others) :])
        state.newly_visited = frozenset({v, *others})
        rp.moved(state, RoundRecord(t, state.positions, NO_GADGETS, len(state.newly_visited)))

    def test_window_holds_exactly_the_checkpoint_leaves(self, observed):
        rp, state, records = observed
        i, leaves, until = rp.window
        assert (i, until) == (1, 12)
        # checkpoint 1's star leaves are the only vertices at depth L*(i+1) = 8
        assert leaves == frozenset(vertices_at_depth(state.tree, 8))
        assert len(leaves) == sum(records[0].gadgets.leaf_count)

    def test_leaf_reached_from_outside_its_branch_is_a_violation(self, observed):
        rp, state, _ = observed
        leaf = state.tree.n - 1  # the last star leaf of checkpoint 1's last gadget
        self._arrive(rp, state, 11, leaf)
        assert rp.violations == {1: [leaf]}
        assert rp.speed_ok

    def test_leaf_reached_from_inside_its_branch_is_not(self, observed):
        rp, state, records = observed
        leaf = state.tree.n - 1
        inside = records[0].gadgets.at[-1]
        rp.positions_at[1] = (inside, *rp.positions_at[1][1:])
        self._arrive(rp, state, 11, leaf)
        assert rp.violations == {1: []}

    def test_vertex_deeper_than_the_round_breaks_the_speed_limit(self, observed):
        rp, state, _ = observed
        leaf = state.tree.n - 1
        assert state.tree.depth[leaf] == 8
        self._arrive(rp, state, 7, leaf, 1)  # vertex 1 is at depth 1
        assert not rp.speed_ok

    @pytest.mark.parametrize("feed", ["play", "replay"])
    def test_observer_verdicts_reach_the_report(self, monkeypatch, small_idle_transcript, feed):
        class Failing:
            def attached(self, state, rec, created):
                super().attached(state, rec, created)
                self.speed_ok = False
                if self.level is not None:
                    self.violations[self.level].append(created[-1])

        if feed == "play":
            params = derive_params(4096, 1, 3, 541)
            ev = type("FailingEvidence", (Failing, Evidence), {})(params)
            report = verify_transcript(run_adversary_game(params, "idle", cap=50, observer=ev), evidence=ev)
        else:
            monkeypatch.setattr(verify, "Evidence", type("FailingEvidence", (Failing, Evidence), {}))
            report = verify_transcript(small_idle_transcript)
        failed = [(c.name, c.checkpoint) for c in report.checks if not c.ok]
        assert failed == [("root_passage_floor", 1), ("root_passage_floor", 2), ("speed_limit", None)]
        assert report.claims_failed == 3


class TestTamperDetection:
    def _doc(self, transcript):
        return json.loads(transcript_to_json(transcript))

    def test_edited_move(self, small_greedy_transcript):
        doc = self._doc(small_greedy_transcript)
        doc["rounds"][0]["moves"][0] = 999
        with pytest.raises(IntegrityError) as exc:
            verify_transcript(transcript_from_json(json.dumps(doc)))
        assert exc.value.round == 1

    def test_edited_selection(self, small_idle_transcript):
        doc = self._doc(small_idle_transcript)
        doc["checkpoints"][0]["S"][0] = doc["checkpoints"][0]["S"][0] + 500
        message = "checkpoint 1 record does not match its recomputation at round 1"
        with pytest.raises(IntegrityError, match=message):
            verify_transcript(transcript_from_json(json.dumps(doc)))

    def test_attachment_outside_checkpoint(self, small_idle_transcript):
        doc = self._doc(small_idle_transcript)
        doc["rounds"][1]["attachments"] = [{"at": 900, "path_len": 0, "leaves": 1}]
        with pytest.raises(IntegrityError, match="outside"):
            verify_transcript(transcript_from_json(json.dumps(doc)))

    def test_edited_outcome(self, small_idle_transcript):
        doc = self._doc(small_idle_transcript)
        doc["outcome"]["final_round"] += 1
        with pytest.raises(IntegrityError, match="final_round"):
            verify_transcript(transcript_from_json(json.dumps(doc)))

    @pytest.mark.parametrize(
        "tamper",
        [
            pytest.param(lambda cp: cp["a"].__setitem__(0, cp["a"][0] + 1), id="edit-a-entry"),
            pytest.param(lambda cp: cp["a"].pop(), id="drop-a-entry"),
            pytest.param(
                lambda cp: cp["K"].__setitem__(slice(0, 2), cp["K"][1::-1]), id="swap-K-entries"
            ),
        ],
    )
    def test_positional_a_values(self, small_idle_transcript, tamper):
        doc = self._doc(small_idle_transcript)
        tamper(doc["checkpoints"][0])
        with pytest.raises(IntegrityError):
            verify_transcript(transcript_from_json(json.dumps(doc)))


@pytest.mark.parametrize(
    "reorder, message",
    [
        (lambda cps: cps[::-1], "checkpoint 1 record does not match its recomputation at round 1"),
        (lambda cps: cps[:1] + cps, "checkpoint 2 record does not match its recomputation at round 3"),
        (lambda cps: cps + cps[-1:], "checkpoint records [2] have no matching rounds"),
    ],
    ids=["reversed", "first-twice", "last-twice"],
)
def test_records_are_checked_in_firing_order(tmp_path, capsys, small_greedy_transcript, reorder, message):
    doc = json.loads(transcript_to_json(small_greedy_transcript))
    assert [cp["i"] for cp in doc["checkpoints"]] == [1, 2]
    doc["checkpoints"] = reorder(doc["checkpoints"])
    out = tmp_path / "tr.json"
    out.write_text(json.dumps(doc))
    assert main(["verify", "--transcript", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("integrity error: ")
    assert message in captured.err


def _gadget_edits():
    """Edits of one gadget list: each field of its last gadget by +-1, one gadget
    dropped, one gadget twice."""
    for field in ("at", "path_len", "leaves"):
        for delta in (1, -1):
            edit = lambda listed, f=field, d=delta: listed[-1].__setitem__(f, listed[-1][f] + d)  # noqa: E731
            yield pytest.param(edit, id=f"{field}{delta:+d}")
    yield pytest.param(lambda listed: listed.pop(), id="drop")
    yield pytest.param(lambda listed: listed.insert(1, dict(listed[0])), id="duplicate")


@pytest.mark.parametrize("edit", _gadget_edits())
@pytest.mark.parametrize("place", ["both", "gadgets", "attachments"])
@pytest.mark.parametrize("index", [0, 1])
def test_edited_gadget_columns_exit_3(tmp_path, capsys, small_greedy_transcript, index, place, edit):
    doc = json.loads(transcript_to_json(small_greedy_transcript))
    checkpoint = doc["checkpoints"][index]
    i = checkpoint["i"]
    t = i * (i + 1) // 2  # L = 1
    if place != "attachments":
        edit(checkpoint["gadgets"])
    if place != "gadgets":
        edit(doc["rounds"][t - 1]["attachments"])
    out = tmp_path / "tr.json"
    out.write_text(json.dumps(doc))
    assert main(["verify", "--transcript", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("integrity error: ")
    if place == "attachments":
        assert f"round {t} attachments differ from checkpoint {i} gadgets" in captured.err
    else:
        assert f"checkpoint {i} record does not match its recomputation at round {t}" in captured.err


def _plain_int(value) -> bool:
    return type(value) is int


def _unshared_attachments(listed):
    if type(listed) is not list:
        raise IntegrityError("attachments are not a list")
    fields = [(obj["at"], obj["path_len"], obj["leaves"]) for obj in listed]
    if not all(_plain_int(v) for triple in fields for v in triple):
        raise IntegrityError("an attachment field is not an integer")
    return gadgets_of(*fields)


def unshared_reader(text: str) -> Transcript:
    """A reader with a fresh moves tuple per round and no check of the move
    types; every other field must be a plain int (a bool for finished)."""
    doc = json.loads(text)
    rounds = []
    for r in doc["rounds"]:
        if not (_plain_int(r["t"]) and _plain_int(r["newly_visited"])):
            raise IntegrityError("a round's t or newly_visited is not an integer")
        attachments = _unshared_attachments(r["attachments"])
        rounds.append(RoundRecord(r["t"], tuple(r["moves"]), attachments, r["newly_visited"]))
    checkpoints = []
    for c in doc["checkpoints"]:
        K, a, S = c["K"], c["a"], c["S"]
        if not _plain_int(c["i"]) or not all(_plain_int(v) for v in (*K, *a, *S)) or len(a) != len(K):
            raise IntegrityError("a checkpoint field is not an integer or a list of them")
        gadgets = _unshared_attachments(c["gadgets"])
        checkpoints.append(CheckpointRecord(c["i"], tuple(K), tuple(a), tuple(S), gadgets))
    out = doc["outcome"]
    if type(out["finished"]) is not bool or not all(map(_plain_int, (out["final_round"], out["n"], out["height"]))):
        raise IntegrityError("an outcome field has the wrong type")
    return Transcript(
        params=doc["params"],
        rounds=rounds,
        checkpoints=checkpoints,
        outcome=Outcome(
            out["finished"], out["final_round"], TreeStats(out["n"], out["height"], out["height"])
        ),
    )


def verdict(read, text: str) -> str:
    try:
        report = verify_transcript(read(text))
    except IntegrityError:
        return "rejected"
    return "ok" if report.ok else "claims failed"


class TestSharedMovesVerdicts:
    """Sharing equal consecutive moves on reload cannot change what verify says."""

    @pytest.mark.parametrize(
        "value, expected",
        [(0.0, "ok"), (False, "ok"), (7, "rejected"), ("x", "rejected")],
        ids=["same-value-float", "same-value-bool", "other-int", "string"],
    )
    def test_mutated_repeated_round(self, small_idle_transcript, value, expected):
        doc = json.loads(transcript_to_json(small_idle_transcript))
        assert doc["rounds"][5]["moves"] == doc["rounds"][4]["moves"]
        doc["rounds"][5]["moves"][0] = value
        text = json.dumps(doc)
        # the unshared reader leaves a string move to the commit's type test
        unshared = verdict(unshared_reader, text)
        assert verdict(transcript_from_json, text) == unshared == expected

    @pytest.mark.parametrize("moves", [None, 0, "0", {"0": 0}, [[0]], [0.0], [True]])
    def test_first_round_moves_must_be_a_list_of_ints(self, small_idle_transcript, moves):
        doc = json.loads(transcript_to_json(small_idle_transcript))
        doc["rounds"][0]["moves"] = moves
        with pytest.raises(IntegrityError, match="round record 0 has moves"):
            transcript_from_json(json.dumps(doc))

    @pytest.mark.parametrize("script", ["AAAAAA", "ABAABA"], ids=["shared-after-a-move", "a-b-a"])
    def test_moves_objects_shared_in_memory(self, script):
        # A sends agent 0 to a depth-1 leaf, B sends agent 1 there too; play
        # records each scripted tuple itself, so every A round holds one object
        params = derive_params(4096, 1, 3, 541)
        rest = (ROOT,) * (params.k - 2)
        objects = {"A": (1, ROOT, *rest), "B": (1, 1, *rest)}

        class Scripted:
            name = "scripted"

            def next_moves(self, view):
                return objects[script[view.round]]

        tr = play(Scripted(), CheckpointRevealer(params), params.k, len(script), params_meta=lemma_header(params))
        assert [id(r.moves) for r in tr.rounds] == [id(objects[c]) for c in script]
        text = transcript_to_json(tr)
        reloaded, unshared = transcript_from_json(text), unshared_reader(text)
        report = verify_transcript(tr).to_json_obj()
        assert verify_transcript(reloaded).to_json_obj() == report == verify_transcript(unshared).to_json_obj()
        assert report["ok"]


@pytest.mark.parametrize("to", [float, bool])
@pytest.mark.parametrize("field", ["at", "path_len", "leaves"])
@pytest.mark.parametrize("place", ["attachments", "gadgets"])
def test_float_gadget_field_is_an_integrity_error(small_greedy_transcript, place, field, to):
    # 1.0 and true equal 1 and false equals 0, so the recomputation alone
    # would not notice; the reader must
    doc = json.loads(transcript_to_json(small_greedy_transcript))
    if place == "attachments":
        owner, name = next((r, f"round record {j}") for j, r in enumerate(doc["rounds"]) if r["attachments"])
    else:
        owner, name = doc["checkpoints"][0], f"checkpoint {doc['checkpoints'][0]['i']}"
    att = owner[place][0]
    att[field] = to(att[field])
    with pytest.raises(IntegrityError, match=f"{name}: '{place}' must be a list of objects with integer"):
        verify_transcript(transcript_from_json(json.dumps(doc)))


@pytest.mark.parametrize("to", [float, bool])
@pytest.mark.parametrize("field", ["K", "a", "S"])
def test_non_integer_checkpoint_entry_is_an_integrity_error(small_idle_transcript, field, to):
    # 1.0 and true equal 1, and false equals 0, so the recomputation alone would not notice
    doc = json.loads(transcript_to_json(small_idle_transcript))
    entries = doc["checkpoints"][0][field]
    original = entries[0]
    entries[0] = to(original)
    assert entries[0] == original
    with pytest.raises(IntegrityError, match=f"checkpoint 1: '{field}' must be a list of integers"):
        transcript_from_json(json.dumps(doc))


class Recompute:
    """A replay observer that recomputes each checkpoint record, as verify does."""

    def __init__(self, params):
        self.revealer = CheckpointRevealer(params)
        self.records = []

    def moved(self, state, rec):
        _, record = self.revealer.reveal(state, state.round)
        if record is not None:
            self.records.append(record)

    def attached(self, state, rec, created):
        pass


class TestTranscriptFormat:
    def test_compact_single_line_in_key_order(self, small_greedy_transcript):
        text = transcript_to_json(small_greedy_transcript)
        assert text.index("\n") == len(text) - 1
        assert list(json.loads(text)) == ["params", "rounds", "checkpoints", "outcome"]

    def test_a_is_a_tuple_aligned_with_K(self, small_greedy_transcript):
        text = transcript_to_json(small_greedy_transcript)
        doc = json.loads(text)
        played = small_greedy_transcript.checkpoints
        for obj, rec in zip(doc["checkpoints"], played, strict=True):
            assert (obj["K"], obj["a"]) == (list(rec.K), list(rec.a))
        reloaded = transcript_from_json(text)
        recompute = Recompute(params_from_transcript(reloaded))
        replay(reloaded, revealer_of(reloaded), recompute)
        assert played == reloaded.checkpoints == recompute.records
        for rec in (*played, *reloaded.checkpoints, *recompute.records):
            assert type(rec.a) is tuple and len(rec.a) == len(rec.K)

    def test_reload_round_trips_and_verifies_alike(self, small_greedy_transcript):
        text = transcript_to_json(small_greedy_transcript)
        reloaded = transcript_from_json(text)
        assert transcript_to_json(reloaded) == text
        assert reloaded.outcome == small_greedy_transcript.outcome
        assert reloaded.checkpoints == small_greedy_transcript.checkpoints
        assert (
            verify_transcript(reloaded).to_json_obj()
            == verify_transcript(small_greedy_transcript).to_json_obj()
        )


class TestStrictMode:
    def test_zero_agent_checkpoints_are_vacuous_not_failures(self):
        params = derive_params(4096, 1, 3, 541, mode="strict")
        tr = run_adversary_game(params, "idle", cap=50)
        report = verify_transcript(tr)
        assert report.ok
        claim2 = [c for c in report.checks if c.name == "claim2_candidates_propagate"]
        assert claim2
        for c in claim2:
            assert not c.asserted
            assert "vacuous" in c.note
            assert not c.ok  # the gap is real: no candidates propagate

    def test_round_floor_informational_in_strict(self):
        params = derive_params(4096, 1, 3, 541, mode="strict")
        tr = run_adversary_game(params, "idle_then_greedy", cap=1000)
        report = verify_transcript(tr)
        floor = next(c for c in report.checks if c.name == "round_floor")
        assert not floor.asserted


class TestBudgetAudit:
    def test_terms_reported(self, small_idle_transcript):
        report = verify_transcript(small_idle_transcript)
        budget = report.budget
        assert budget["initial_vertices"] == 2049
        assert budget["total_vertices"] == 2412
        assert budget["budget_limit"] == 5735
        assert budget["agent_term"] == 0  # idle keeps every branch empty
        assert budget["surcharge"] > 0    # every selected vertex needed the floor
        # the classical chain caps, evaluated at these parameters
        assert budget["initial_bound"] <= budget["n_over_6"] * 3 + 2048 + 1
        assert budget["path_term_bound"] <= budget["n_over_6"]

    def test_agent_weighted_term_bound_holds_within_team_limit(self, small_greedy_transcript):
        budget = verify_transcript(small_greedy_transcript).budget
        assert budget["agent_term"] <= budget["agent_term_bound"]
        assert budget["agent_term_bound"] <= budget["n_over_6"]


def test_oversized_team_budget_not_asserted():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = derive_params(4096, 1, 3, 4096)
    tr = run_adversary_game(params, "phase_bfs", cap=1000)
    report = verify_transcript(tr)
    vb = next(c for c in report.checks if c.name == "vertex_budget")
    assert not vb.asserted
    assert report.ok
