"""One fuzz over every input channel of the CLI: argv, tree, spec and transcript files.

Every run, in process through ``cli.main``, must end in a documented exit
code (0, 1, 2 or 3). A failing one writes at most one stderr line and no
traceback; a warning would reach stderr too, so a failing run raises
none. Integers run up to 4300 decimal digits, the int-to-str limit, so
the pieces that print numbers meet values they cannot print. Generated
trees and instances stay far below ``tree.MAX_PATH_STAR_VERTICES``, and
round caps stay small: a game plays as many rounds as its cap allows,
and idle never finishes. Caps of any size go to idle games alone, under
a round limit patched small, so a long game ends at the limit.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treexplore import derive_params, encode_tree, game, transcript_to_json
from treexplore.harness.cli import main
from treexplore.harness.runner import run_adversary_game
from treexplore.tree import RootedTree

EXPLORERS = ("idle", "single_dfs", "phase_bfs", "greedy_frontier", "idle_then_greedy")

# a digit count in 1..4300, half the time near the top, then an integer of that many digits
DIGITS = st.one_of(st.integers(1, 4300), st.integers(4250, 4300))
HUGE = DIGITS.flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1))
INTS = st.one_of(st.integers(-2, 20), st.sampled_from([256, 4096]), HUGE)
CAPS = st.integers(-1, 8)
JUNK = st.sampled_from(["x", "1.5", "-", "", "nan", "1e9"])


def near(lo, hi):
    """Often a value that plays, otherwise anything from INTS."""
    return st.one_of(st.integers(lo, hi), INTS)


FLAGS = {
    "n": st.one_of(st.sampled_from([256, 4096]), HUGE, INTS),
    "L": near(1, 4),
    "m": near(1, 3),
    "k": near(1, 60),
    "D": near(1, 4),
    "c": near(0, 3),
    "switch-round": near(0, 6),
}


def one_in(n):
    return st.sampled_from([False] * (n - 1) + [True])


# a small transcript to edit: (256, 1, 2, 8), one checkpoint at round 1
BASE = transcript_to_json(run_adversary_game(derive_params(256, 1, 2, 8), "greedy_frontier", cap=4))


@st.composite
def trees(draw):
    """Tree file bytes: a random tree of up to 8 vertices, or an edit of one."""
    tree = RootedTree()
    for v in range(1, draw(st.integers(1, 8))):
        tree.add_child(draw(st.integers(0, v - 1)))
    text = encode_tree(tree).decode()
    edit = draw(st.sampled_from(["none", "none", "none", "n", "parent", "cut"]))
    if edit == "n":
        text = json.dumps({"n": draw(INTS), "parent": json.loads(text)["parent"]})
    elif edit == "parent":
        parents = json.loads(text)["parent"]
        odd = st.one_of(INTS, st.sampled_from([None, True, 1.5]))
        parents[draw(st.integers(0, len(parents) - 1))] = draw(odd)
        text = json.dumps({"n": len(parents), "parent": parents})
    elif edit == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    return text.encode()


@st.composite
def transcripts(draw):
    """Transcript file text: the base game with one header field or one span replaced."""
    doc = json.loads(BASE)
    edit = draw(st.sampled_from(["none", "header", "span"]))
    if edit == "header":
        doc["params"][draw(st.sampled_from(["n", "L", "m", "k", "cap"]))] = draw(INTS)
    text = json.dumps(doc, separators=(",", ":"))
    if edit == "span":
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        piece = draw(st.sampled_from(["", "0", "-1", "[", "}", '"', str(draw(HUGE))]))
        text = text[:i] + piece + text[j:]
    return text


@st.composite
def specs(draw):
    """Sweep spec text: one small lemma or fixed grid, or something that is not a spec."""
    explorer = st.one_of(
        st.sampled_from(EXPLORERS + ("nope",)),
        st.fixed_dictionaries({"name": st.sampled_from(EXPLORERS), "k": FLAGS["k"] | st.just("n")}),
    )
    spec = {
        "revealer": draw(st.sampled_from(["lemma", "fixed"])) if not draw(one_in(10)) else "other",
        "explorers": draw(st.lists(explorer, min_size=1, max_size=2)),
        "modes": [draw(st.sampled_from(["repaired", "strict"]))],
        "caps": [draw(CAPS)],
    }
    if spec["revealer"] == "fixed":
        spec["trees"] = ["tree.json"]
        spec["k_values"] = [draw(FLAGS["k"])]
    else:
        spec["grid"] = [{key: draw(FLAGS[key]) for key in ("n", "L", "m", "k")}]
    if draw(one_in(8)):
        return draw(st.sampled_from(["[1]", "{", json.dumps({"grid": 5})]))
    return json.dumps(spec)


def _flags(draw, names):
    """Each flag nine times in ten, its value now and then not an integer."""
    argv = []
    for name in names:
        if not draw(one_in(10)):
            value = draw(JUNK) if draw(one_in(12)) else str(draw(FLAGS[name]))
            argv += [f"--{name}", value]
    return argv


@st.composite
def argvs(draw):
    """One command line; ``files`` maps the file names it reads to their contents."""
    command = draw(st.sampled_from(["run", "verify", "offline", "params", "sweep"]))
    files = {"tree.json": draw(trees())}
    if command == "run":
        revealer = draw(st.sampled_from(["lemma", "fixed"]))
        argv = ["run", "--explorer", draw(st.sampled_from(EXPLORERS)), "--revealer", revealer]
        argv += _flags(draw, ["n", "L", "m", "k"] if revealer == "lemma" else ["k"])
        if argv[2] == "idle_then_greedy" or draw(one_in(10)):
            argv += _flags(draw, ["switch-round"])
        argv += ["--cap", str(draw(CAPS)), "--tree", "tree.json"]
        argv += ["--mode", draw(st.sampled_from(["repaired", "strict"]))]
        argv += ["--view", draw(st.sampled_from(["game", "local"]))]
        argv += draw(st.sampled_from([[], ["--out", "out.json"], ["--emit-tree", "final.dot"]]))
    elif command == "verify":
        files["transcript.json"] = draw(transcripts()).encode()
        path = draw(st.sampled_from(["transcript.json", "tree.json", "missing.json"]))
        argv = ["verify", "--transcript", path]
    elif command == "offline":
        argv = ["offline", "--tree", "tree.json", *_flags(draw, ["k"])]
        argv += draw(st.sampled_from([[], ["--brute"]]))
    elif command == "params":
        thm = draw(st.sampled_from(["1", "2", "3", "4"]))
        required = {"1": "nkc", "2": "nk", "3": "n", "4": ["n", "D", "m", "k"]}[thm]
        argv = ["params", "--thm", thm, *_flags(draw, required)]
        if thm == "2" and not draw(one_in(10)):
            argv += ["--eps", draw(st.sampled_from(["0.1", "0.05", "0.19", "1e-12", "nan", "-1"]))]
    else:
        files["spec.json"] = draw(specs()).encode()
        argv = ["sweep", "--spec", "spec.json", "--out", "rows.csv"]
    if draw(one_in(10)):
        argv.append(draw(st.sampled_from(["--bogus", "x"])))
    return argv, files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=argvs())
def test_every_command_ends_in_a_documented_exit_code(workdir, monkeypatch_module, case):
    argv, files = case
    for name, content in files.items():
        (workdir / name).write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code != 0:
        assert err.getvalue().count("\n") <= 1 and not caught, (argv, err.getvalue(), caught)
        assert "Traceback" not in err.getvalue()


ROUND_LIMIT = 16


@st.composite
def long_idle_games(draw):
    """``run`` of idle in either view and with either revealer, its cap drawn from INTS."""
    argv = ["run", "--explorer", "idle", "--view", draw(st.sampled_from(["game", "local"]))]
    if draw(st.booleans()):
        argv += ["--revealer", "lemma", "--n", "256", "--L", "1", "--m", "2", "--k", "8"]
    else:
        argv += ["--revealer", "fixed", "--tree", "tree.json", "--k", str(draw(st.integers(1, 3)))]
    return argv + ["--cap", str(draw(INTS))]


@settings(max_examples=60, deadline=None)
@given(argv=long_idle_games())
def test_idle_games_of_any_cap_end_at_the_round_limit(workdir, monkeypatch_module, argv):
    tree = RootedTree()
    for v in range(1, 5):
        tree.add_child(v - 1)
    (workdir / "tree.json").write_bytes(encode_tree(tree))
    cap = int(argv[-1])
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(game, "MAX_ROUNDS", ROUND_LIMIT)
        code = main(argv)
    if 0 <= cap <= ROUND_LIMIT:
        assert code == 0 and not err.getvalue(), (argv, err.getvalue())
    else:
        message = "round limit" if cap > 0 else "round cap must be an integer >= 0"
        assert code == 1 and err.getvalue().count("\n") == 1, (argv, err.getvalue())
        assert message in err.getvalue()


@pytest.fixture(scope="module")
def monkeypatch_module(workdir):
    """The commands read and write file names relative to the fuzz directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        yield mp
