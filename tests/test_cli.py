"""CLI surface: subcommands, file outputs, exit codes, byte stability."""

import csv
import io
import json

import pytest

from treexplore import decode_tree, encode_tree, game, make_path_star, transcript_from_json
from treexplore.harness.cli import main
from treexplore.harness.sweep import run_sweep

LEMMA_ARGS = [
    "run", "--explorer", "greedy_frontier", "--revealer", "lemma",
    "--n", "4096", "--L", "1", "--m", "3", "--k", "541", "--cap", "1000",
]


def test_run_writes_transcript_and_tree(tmp_path, capsys):
    out = tmp_path / "tr.json"
    tree_out = tmp_path / "final.json"
    code = main(LEMMA_ARGS + ["--out", str(out), "--emit-tree", str(tree_out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["finished"] is True
    assert summary["final_round"] == 11
    doc = json.loads(out.read_text())
    assert doc["params"]["mode"] == "repaired"
    assert doc["outcome"]["n"] == 2412
    final_tree = decode_tree(tree_out.read_bytes())
    assert final_tree.n == 2412


def test_run_emit_dot(tmp_path):
    target = tmp_path / "t.dot"
    code = main([
        "run", "--explorer", "single_dfs", "--revealer", "fixed",
        "--tree", _tree_file(tmp_path), "--k", "1", "--out", str(tmp_path / "x.json"),
        "--emit-tree", str(target),
    ])
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph tree {")
    assert text.endswith("}\n")


def _tree_file(tmp_path) -> str:
    path = tmp_path / "tree.json"
    path.write_bytes(encode_tree(make_path_star(4, 2)))
    return str(path)


def test_run_twice_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(LEMMA_ARGS + ["--out", str(a)]) == 0
    assert main(LEMMA_ARGS + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_accepts_and_repeats(tmp_path, capsys):
    out = tmp_path / "tr.json"
    main(LEMMA_ARGS + ["--out", str(out)])
    capsys.readouterr()
    assert main(["verify", "--transcript", str(out)]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--transcript", str(out)]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["ok"] is True
    assert report["claims_failed"] == 0


def test_offline_bounds(tmp_path, capsys):
    code = main(["offline", "--tree", _tree_file(tmp_path), "--k", "2", "--brute"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trivial_lb"] == max(2, -(-8 // 2))
    assert doc["euler_ub"] <= 2 + 8
    assert doc["brute_opt"] is not None


@pytest.mark.parametrize("k", ["0", "-3"])
def test_offline_nonpositive_k_exits_1_with_one_line(tmp_path, capsys, k):
    assert main(["offline", "--tree", _tree_file(tmp_path), "--k", k]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert f"k={k}" in captured.err


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"n": 2, "parent": [null, ', "invalid JSON: Expecting value"),
        (b"\xff\xfe{}", "invalid UTF-8"),
        pytest.param(b"[" * 200000, "invalid JSON: nested too deeply", id="nested-200000"),
        (b'{"n": 3, "parent": [null, 2, 1]}', "violates the requirement"),
        (b'{"n": 3, "parent": [null, false, true]}', "parent[1] = False violates the requirement"),
    ],
)
def test_offline_malformed_tree_exits_1_with_one_line(tmp_path, capsys, content, message):
    tree = tmp_path / "bad.json"
    tree.write_bytes(content)
    assert main(["offline", "--tree", str(tree), "--k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert message in captured.err


def test_params_subcommand(capsys):
    assert main(["params", "--thm", "2", "--eps", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 5 and doc["L"] == 1


def test_params_out_of_range_exits_2(capsys):
    assert main(["params", "--thm", "2", "--eps", "0.25"]) == 2


def test_run_infeasible_params_exit_2(tmp_path):
    assert main([
        "run", "--explorer", "idle", "--revealer", "lemma",
        "--n", "100", "--L", "1", "--m", "3", "--k", "5",
    ]) == 2


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--explorer", "not_a_strategy", "--revealer", "lemma"])
    assert exc.value.code == 1


def test_missing_file_exits_1(capsys):
    assert main(["verify", "--transcript", "/nonexistent/tr.json"]) == 1


def _truncate(text: str) -> str:
    return text[:3000]


def _drop_finished(text: str) -> str:
    doc = json.loads(text)
    del doc["outcome"]["finished"]
    return json.dumps(doc)


def _object_valued_a(text: str) -> str:
    doc = json.loads(text)
    cp = doc["checkpoints"][0]
    cp["a"] = {str(v): c for v, c in zip(cp["K"], cp["a"])}
    return json.dumps(doc)


def _short_a(text: str) -> str:
    doc = json.loads(text)
    doc["checkpoints"][0]["a"].pop()
    return json.dumps(doc)


def _deeply_nested(text: str) -> str:
    return "[" * 200000


def _set(*path, to):
    """Set the field at ``path`` to ``to``, or to ``to(old value)`` when ``to`` is a type."""

    def corrupt(text: str) -> str:
        doc = json.loads(text)
        *head, last = path
        obj = doc
        for key in head:
            obj = obj[key]
        obj[last] = to(obj[last]) if isinstance(to, type) else to
        return json.dumps(doc)

    return corrupt


def _pad(count):
    """Stay-put rounds after the last one, with final_round raised to match."""

    def corrupt(text: str) -> str:
        doc = json.loads(text)
        last = doc["rounds"][-1]
        for t in range(last["t"] + 1, last["t"] + 1 + count):
            doc["rounds"].append({"t": t, "moves": last["moves"], "attachments": [], "newly_visited": 0})
        doc["outcome"]["final_round"] += count
        return json.dumps(doc)

    return corrupt


def _stop_unfinished_before_the_cap(text: str) -> str:
    doc = json.loads(text)
    del doc["rounds"][5:]
    doc["outcome"].update(finished=False, final_round=5)
    return json.dumps(doc)


def _honest(text: str) -> str:
    return text


NOT_INT_MOVES = "round record 0 has moves that are not a list of integers"
BAD_ATTACHMENTS = "round record 0: 'attachments' must be a list of objects with integer 'at', 'path_len' and 'leaves'"
BAD_GADGETS = "checkpoint 1: 'gadgets' must be a list of objects with integer 'at', 'path_len' and 'leaves'"
FIXED_ARGS = ["run", "--explorer", "single_dfs", "--revealer", "fixed", "--k", "1", "--cap", "100"]


@pytest.mark.parametrize(
    "revealer, corrupt, message",
    [
        # rejected by the reader
        ("lemma", _truncate, "not valid JSON"),
        ("lemma", _drop_finished, "missing key 'finished'"),
        ("lemma", _object_valued_a, "'a' must be a list"),
        ("lemma", _short_a, "'a' must be a list"),
        ("lemma", _set("checkpoints", 0, "a", 0, to=float), "checkpoint 1: 'a' must be a list of integers"),
        ("lemma", _set("rounds", 0, "moves", 0, to="x"), NOT_INT_MOVES),
        ("lemma", _set("rounds", 0, "moves", 0, to=1.0), NOT_INT_MOVES),
        ("lemma", _set("rounds", 0, "moves", 0, to=True), NOT_INT_MOVES),
        ("lemma", _deeply_nested, "not valid JSON: nested too deeply"),
        ("lemma", _set("rounds", 0, "t", to=float), "round record 0: 't' must be an integer"),
        ("lemma", _set("rounds", 0, "newly_visited", to=float), "round record 0: 'newly_visited' must be an integer"),
        ("lemma", _set("rounds", 0, "attachments", 0, "path_len", to=False), BAD_ATTACHMENTS),
        ("lemma", _set("checkpoints", 0, "gadgets", 0, "path_len", to=False), BAD_GADGETS),
        ("lemma", _set("checkpoints", 0, "gadgets", 0, "leaves", to=float), BAD_GADGETS),
        ("lemma", _set("checkpoints", 0, "i", to=True), "checkpoint record 0: 'i' must be an integer"),
        ("lemma", _set("checkpoints", 0, "i", to=float), "checkpoint record 0: 'i' must be an integer"),
        ("lemma", _set("checkpoints", 0, "i", to={}), "checkpoint record 0: 'i' must be an integer"),
        ("lemma", _set("outcome", "finished", to=1), "outcome: 'finished' must be a boolean"),
        ("lemma", _set("outcome", "final_round", to=float), "outcome: 'final_round' must be an integer"),
        ("lemma", _set("outcome", "height", to="x"), "outcome: 'height' must be an integer"),
        # rejected by verify: a header that names no adversary, or a replay that fails
        ("fixed", _honest, "transcript was produced by revealer 'fixed', not the adversary"),
        ("lemma", _set("rounds", 0, "moves", 0, to=40), "round 1: recorded 541 new visits, replay saw 540"),
        ("lemma", _pad(1), "round 12 is recorded after the tree was fully explored"),
        ("lemma", _pad(50), "round 12 is recorded after the tree was fully explored"),
        ("lemma", _stop_unfinished_before_the_cap, "game stopped unfinished at round 5, before the cap 1000"),
        ("lemma", _set("params", "cap", to=5), "outcome final_round 11 is past the cap 5"),
        ("lemma", _set("params", "cap", to=1.5), "need an integer k >= 1 and cap (got k=541, cap=1.5)"),
        ("lemma", _set("params", "cap", to="x"), "need an integer k >= 1 and cap (got k=541, cap='x')"),
        ("lemma", _set("outcome", "height", to=999), "outcome height 999 != replayed 3"),
        # rejected by the header derivation
        ("lemma", _set("params", "L", to=True), "n, L, m must be integers (got n=4096, L=True, m=3)"),
        ("lemma", _set("params", "view", to="nope"), "need view 'game' or 'local' and an explorer name (got view='nope'"),
        ("lemma", _set("params", "explorer", to=5), "an explorer name (got view='game', explorer=5)"),
        # rejected before the replay: play refuses an initial tree this large
        ("lemma", _set("params", "n", to=10**12), "path star of 500000000001 vertices is over the size limit"),
    ],
)
def test_verify_failure_exits_3_with_one_stderr_line(tmp_path, capsys, revealer, corrupt, message):
    # reader and replay failures have one shape: exit 3, no report, one integrity error line
    out = tmp_path / "tr.json"
    run = LEMMA_ARGS if revealer == "lemma" else FIXED_ARGS + ["--tree", _tree_file(tmp_path)]
    assert main(run + ["--out", str(out)]) == 0
    out.write_text(corrupt(out.read_text()))
    capsys.readouterr()
    assert main(["verify", "--transcript", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("integrity error: ")
    assert message in captured.err


def test_verify_non_utf8_bytes_exits_3(tmp_path, capsys):
    out = tmp_path / "tr.json"
    out.write_bytes(b"\xff\xfe{}")
    assert main(["verify", "--transcript", str(out)]) == 3
    assert capsys.readouterr().err.startswith("integrity error: ")


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err


@pytest.mark.parametrize("k", ["-1", "0"])
def test_run_fixed_nonpositive_k_exits_1_with_one_line(tmp_path, capsys, k):
    args = ["run", "--explorer", "greedy_frontier", "--revealer", "fixed", "--tree", _tree_file(tmp_path)]
    assert main(args + ["--k", k]) == 1
    assert f"team size must be an integer >= 1 (got {k})" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "args, missing",
    [
        (["--thm", "1", "--k", "5"], "--n"),
        (["--thm", "1", "--n", "4096"], "--k"),
        (["--thm", "2", "--n", "4096"], "--eps"),
        (["--thm", "3"], "--n"),
        (["--thm", "4", "--D", "2", "--m", "2"], "--n"),
        (["--thm", "4", "--n", "4096", "--m", "2"], "--D"),
        (["--thm", "4", "--n", "4096", "--D", "2"], "--m"),
    ],
)
def test_params_missing_input_exits_1_with_one_line(capsys, args, missing):
    assert main(["params", *args]) == 1
    assert f"{missing} is required with --thm {args[1]}" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "explorer, extra, message",
    [
        ("idle", ["--switch-round", "3"], "applies only to --explorer idle_then_greedy"),
        ("idle", ["--switch-round", "-7"], "applies only to --explorer idle_then_greedy"),
        ("idle_then_greedy", ["--switch-round", "-7"], "must be >= 0 (got -7)"),
    ],
)
def test_run_switch_round_where_it_does_nothing_exits_1(capsys, explorer, extra, message):
    assert main(LEMMA_ARGS[:2] + [explorer] + LEMMA_ARGS[3:] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and message in captured.err


FIXED_IDLE_THEN_GREEDY = ["run", "--explorer", "idle_then_greedy", "--revealer", "fixed", "--k", "2"]


@pytest.mark.parametrize("switch_round", [0, 3])
def test_run_idle_then_greedy_on_a_fixed_tree_parks_then_plays(tmp_path, capsys, switch_round):
    out = tmp_path / "tr.json"
    args = ["--tree", _tree_file(tmp_path), "--switch-round", str(switch_round), "--out", str(out)]
    assert main(FIXED_IDLE_THEN_GREEDY + args) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["finished"] and summary["explorer"] == "idle_then_greedy_frontier"
    rounds = transcript_from_json(out.read_bytes()).rounds
    assert [r.moves for r in rounds[:switch_round]] == [(0, 0)] * switch_round
    assert rounds[switch_round].moves != (0, 0)


def test_run_idle_then_greedy_on_a_fixed_tree_needs_a_switch_round(tmp_path, capsys):
    assert main(FIXED_IDLE_THEN_GREEDY + ["--tree", _tree_file(tmp_path)]) == 1
    assert "idle_then_greedy needs a switch round" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "args, message",
    [
        (["params", "--thm", "2", "--eps", "1e-12"], "eps = 1e-12 is too small"),
        (["params", "--thm", "2", "--eps", "5e-324"], "eps = 5e-324 is too small"),
        (
            ["run", "--explorer", "idle", "--revealer", "lemma", "--n", "5", "--L", "1", "--m", "100000000000", "--k", "1"],
            "n >= L*16^m required: 5 < 1*16^100000000000",
        ),
    ],
)
def test_astronomical_budget_exits_2_with_one_line(capsys, args, message):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("infeasible parameters: ") and message in err


@pytest.mark.parametrize(
    "args",
    [
        ["params", "--thm", "3", "--n", "1" + "0" * 4299],
        ["params", "--thm", "4", "--D", "1", "--m", "2", "--n", "1" + "0" * 4299],
        ["params", "--thm", "2", "--eps", "0.1", "--n", "1" + "0" * 4200, "--k", "1"],
    ],
)
def test_astronomical_team_bound_prints_null(capsys, args):
    # the team bound has more decimal digits than an int may print
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["feasible"] is True and doc["details"]["max_team_size"] is None


def test_run_over_the_size_limit_exits_1_with_one_line(capsys):
    args = ["run", "--explorer", "greedy_frontier", "--revealer", "lemma", "--n", "1000000000000"]
    assert main(args + ["--L", "1", "--m", "2", "--k", "1", "--cap", "1"]) == 1
    assert "path star of 500000000001 vertices is over the size limit" in _one_error_line(capsys)


@pytest.mark.parametrize("revealer", ["fixed", "lemma"])
def test_run_past_the_round_limit_exits_1_with_one_line(tmp_path, monkeypatch, capsys, revealer):
    # neither game ends: idle never leaves the root, and the default cap is far above the limit
    monkeypatch.setattr(game, "MAX_ROUNDS", 64)
    if revealer == "fixed":
        path = tmp_path / "path.json"
        path.write_bytes(encode_tree(make_path_star(1, 1000)))
        args = ["--revealer", "fixed", "--tree", str(path), "--k", "1"]
    else:
        args = ["--revealer", "lemma", "--n", "4096", "--L", "1", "--m", "3", "--k", "541"]
    out = tmp_path / "tr.json"
    assert main(["run", "--explorer", "idle", *args, "--out", str(out)]) == 1
    assert "a game of more than 64 rounds is over the round limit" in _one_error_line(capsys)
    assert not out.exists()


def test_run_negative_cap_exits_1_with_one_line(capsys):
    assert main(LEMMA_ARGS[:-2] + ["--cap", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "round cap" in err


class TestSweep:
    def _spec(self, tmp_path, grid):
        spec = {
            "revealer": "lemma",
            "explorers": ["idle", "single_dfs", {"name": "phase_bfs", "k": "n"}, "greedy_frontier"],
            "grid": grid,
            "modes": ["repaired"],
            "caps": [60],
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_four_explorers_four_rows(self, tmp_path, capsys):
        spec = self._spec(tmp_path, [{"n": 4096, "L": 1, "m": 3, "k": 541}])
        out = tmp_path / "results.csv"
        assert main(["sweep", "--spec", spec, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("explorer,revealer,mode,n,L,m,k,finished")
        assert len(lines) == 5
        assert lines[1].split(",")[0] == "idle"
        assert all(line.endswith(",") for line in lines[1:])  # empty error column

    def test_infeasible_cell_gets_error_annotation(self, tmp_path):
        spec = self._spec(tmp_path, [{"n": 100, "L": 1, "m": 3, "k": 5}])
        out = tmp_path / "results.csv"
        assert main(["sweep", "--spec", spec, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert "16" in lines[1]  # the violated inequality mentions L*16^m

    def test_sweep_is_byte_identical(self, tmp_path):
        spec = self._spec(tmp_path, [{"n": 4096, "L": 1, "m": 3, "k": 541}])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--spec", spec, "--out", str(a)])
        main(["sweep", "--spec", spec, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_fixed_revealer_sweep(self, tmp_path):
        tree_path = tmp_path / "tree.json"
        tree_path.write_bytes(encode_tree(make_path_star(5, 2)))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "revealer": "fixed",
            "explorers": ["single_dfs", "greedy_frontier"],
            "trees": ["tree.json"],
            "k_values": [1, 2],
            "caps": [100],
        }))
        out = tmp_path / "results.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert lines[1].split(",")[1] == "fixed"


GOOD_ENTRY = {"n": 4096, "L": 1, "m": 3, "k": 541}


def _lemma_spec(explorers, grid):
    return {"revealer": "lemma", "explorers": explorers, "grid": grid, "modes": ["repaired"], "caps": [20]}


def _fixed_spec(explorers):
    return {"revealer": "fixed", "explorers": explorers, "trees": ["tree.json"], "k_values": [2], "caps": [50]}


# (spec with one bad cell, the same spec without it, text of the error)
BAD_SWEEPS = {
    "unknown_explorer": (
        _lemma_spec(["idle", "no_such_explorer", "greedy_frontier"], [GOOD_ENTRY]),
        _lemma_spec(["idle", "greedy_frontier"], [GOOD_ENTRY]),
        "unknown explorer 'no_such_explorer'",
    ),
    "grid_entry_without_k": (
        _lemma_spec(["idle"], [GOOD_ENTRY, {"n": 4096, "L": 1, "m": 3}]),
        _lemma_spec(["idle"], [GOOD_ENTRY]),
        "has no 'k'",
    ),
    "grid_entry_n_not_an_integer": (
        _lemma_spec(["idle"], [GOOD_ENTRY, {"n": "4096", "L": 1, "m": 3, "k": 541}]),
        _lemma_spec(["idle"], [GOOD_ENTRY]),
        "n, L, m must be integers",
    ),
    "grid_entry_L_a_bool": (
        _lemma_spec(["idle"], [GOOD_ENTRY, {"n": 4096, "L": True, "m": 3, "k": 541}]),
        _lemma_spec(["idle"], [GOOD_ENTRY]),
        "n, L, m must be integers",
    ),
    "grid_entry_k_not_an_integer": (
        _lemma_spec(["idle"], [{"n": 4096, "L": 1, "m": 3, "k": 541.0}, GOOD_ENTRY]),
        _lemma_spec(["idle"], [GOOD_ENTRY]),
        "k must be a positive integer",
    ),
    "grid_entry_not_an_object": (
        _lemma_spec(["idle"], [GOOD_ENTRY, 5]),
        _lemma_spec(["idle"], [GOOD_ENTRY]),
        "grid entry 5 is not an object",
    ),
    "explorer_without_name": (
        _lemma_spec(["idle", {"k": 541}, "greedy_frontier"], [GOOD_ENTRY]),
        _lemma_spec(["idle", "greedy_frontier"], [GOOD_ENTRY]),
        "unknown explorer None",
    ),
    "explorer_k_not_an_integer": (
        _lemma_spec(["idle", {"name": "idle", "k": "many"}], [GOOD_ENTRY]),
        _lemma_spec(["idle"], [GOOD_ENTRY]),
        "explorer k 'many'",
    ),
    "fixed_explorer_without_name": (
        _fixed_spec(["single_dfs", {"name": None}]),
        _fixed_spec(["single_dfs"]),
        "unknown explorer None",
    ),
    "cap_not_an_integer": (
        {**_lemma_spec(["idle"], [GOOD_ENTRY]), "caps": [20, "x"]},
        _lemma_spec(["idle"], [GOOD_ENTRY]),
        "round cap must be an integer >= 0 (got 'x')",
    ),
    "grid_entry_over_the_size_limit": (
        _lemma_spec(["idle"], [GOOD_ENTRY, {"n": 10**12, "L": 1, "m": 2, "k": 1}]),
        _lemma_spec(["idle"], [GOOD_ENTRY]),
        "path star of 500000000001 vertices is over the size limit",
    ),
    "fixed_cap_not_an_integer": (
        {**_fixed_spec(["single_dfs"]), "caps": ["x", 50]},
        _fixed_spec(["single_dfs"]),
        "round cap must be an integer >= 0 (got 'x')",
    ),
    "fixed_negative_k": (
        {**_fixed_spec(["greedy_frontier"]), "k_values": [2, -1]},
        _fixed_spec(["greedy_frontier"]),
        "team size must be an integer >= 1 (got -1)",
    ),
    "fixed_k_not_an_integer": (
        {**_fixed_spec(["single_dfs"]), "k_values": ["2", 2]},
        _fixed_spec(["single_dfs"]),
        "team size must be an integer >= 1 (got '2')",
    ),
    "fixed_tree_not_a_string": (
        {**_fixed_spec(["single_dfs"]), "trees": ["tree.json", 5]},
        _fixed_spec(["single_dfs"]),
        "tree path 5 is not a string",
    ),
    "fixed_idle_then_greedy_without_switch_round": (
        _fixed_spec(["single_dfs", "idle_then_greedy"]),
        _fixed_spec(["single_dfs"]),
        "needs a switch round",
    ),
}


class TestSweepBadCells:
    """A bad cell gets its message in the error column; the sweep goes on."""

    @staticmethod
    def _split(csv_text, message):
        rows = list(csv.reader(io.StringIO(csv_text)))
        errors = [row for row in rows[1:] if row[-1]]
        assert len(errors) == 1 and message in errors[0][-1]
        return [row for row in rows if row not in errors]

    @pytest.fixture
    def base_dir(self, tmp_path):
        (tmp_path / "tree.json").write_bytes(encode_tree(make_path_star(4, 2)))
        return tmp_path

    @pytest.mark.parametrize("case", sorted(BAD_SWEEPS))
    def test_run_sweep_keeps_the_other_rows(self, case, base_dir):
        bad, clean, message = BAD_SWEEPS[case]
        rows = self._split(run_sweep(bad, base_dir=base_dir), message)
        assert rows == list(csv.reader(io.StringIO(run_sweep(clean, base_dir=base_dir))))

    @pytest.mark.parametrize("case", sorted(BAD_SWEEPS))
    def test_cli_sweep_exits_0_with_one_error_row(self, case, base_dir, capsys):
        bad, clean, message = BAD_SWEEPS[case]
        spec, out = base_dir / "bad.json", base_dir / "bad.csv"
        spec.write_text(json.dumps(bad))
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = self._split(out.read_text(), message)
        assert rows == list(csv.reader(io.StringIO(run_sweep(clean, base_dir=base_dir))))


@pytest.mark.parametrize(
    "content,message",
    [
        (b'{"revealer": "lemma", "explorers": ["idle"', "is not valid JSON"),
        (b"\xff\xfe{}", "is not valid JSON"),
        (b'["idle"]', "is not a JSON object"),
        (b'{"explorers": "idle", "grid": []}', "field 'explorers' must be a list (got 'idle')"),
        (b'{"explorers": ["idle"], "grid": {"n": 4096}}', "field 'grid' must be a list"),
        (b'{"explorers": ["idle"], "grid": [], "modes": "strict"}', "field 'modes' must be a list"),
        (b'{"explorers": ["idle"], "grid": [], "caps": 20}', "field 'caps' must be a list (got 20)"),
        (b'{"revealer": "fixed", "explorers": ["idle"], "trees": "t.json"}', "field 'trees' must be a list"),
        (b'{"revealer": "fixed", "explorers": ["idle"], "trees": [], "k_values": 2}', "field 'k_values'"),
        pytest.param(b"[" * 200000, "is not valid JSON: nested too deeply", id="nested-200000"),
    ],
)
def test_cli_sweep_unreadable_spec_exits_1_with_one_line(tmp_path, capsys, content, message):
    spec, out = tmp_path / "bad.json", tmp_path / "bad.csv"
    spec.write_bytes(content)
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep spec ") and message in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()
