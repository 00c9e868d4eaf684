"""Command-line front end.

Subcommands: run (play one game), verify (check a transcript), offline
(bounds for a known tree), params (regime parameter pickers), sweep
(grid of games to CSV). Exit codes: 0 success, 1 usage error, 2
infeasible parameters, 3 invariant violation or integrity failure found
by verify.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..adversary import derive_params
from ..errors import InfeasibleParamsError, IntegrityError, InvalidParameterError, TreexploreError
from ..game import VIEW_MODES, transcript_from_json, transcript_to_json
from ..offline import bounds_report
from ..strategies import STRATEGY_NAMES
from ..tree import decode_tree, encode_tree, tree_to_dot
from .params import pick_params
from .runner import run_adversary_game, run_fixed_game
from .sweep import load_sweep_spec, run_sweep
from .verify import verify_transcript

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse prints the usage too and exits 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _cmd_run(args) -> int:
    if args.switch_round is not None:
        if args.explorer != "idle_then_greedy":
            raise InvalidParameterError("--switch-round applies only to --explorer idle_then_greedy")
        if args.switch_round < 0:
            raise InvalidParameterError(f"--switch-round must be >= 0 (got {args.switch_round})")
    if args.revealer == "lemma":
        for field in ("n", "L", "m", "k"):
            if getattr(args, field) is None:
                raise InfeasibleParamsError(f"--{field} is required with --revealer lemma")
        params = derive_params(args.n, args.L, args.m, args.k, mode=args.mode)
        transcript = run_adversary_game(
            params, args.explorer, cap=args.cap, view_mode=args.view, switch_round=args.switch_round
        )
    else:
        if args.tree is None:
            raise InfeasibleParamsError("--tree is required with --revealer fixed")
        if args.k is None:
            raise InfeasibleParamsError("--k is required with --revealer fixed")
        tree = decode_tree(Path(args.tree).read_bytes())
        transcript = run_fixed_game(
            tree, args.explorer, args.k, cap=args.cap, view_mode=args.view, switch_round=args.switch_round
        )
    if args.out:
        _write_text(Path(args.out), transcript_to_json(transcript))
    if args.emit_tree:
        target = Path(args.emit_tree)
        final_tree = transcript.final_state.tree
        if target.suffix == ".dot":
            _write_text(target, tree_to_dot(final_tree))
        else:
            with open(target, "wb") as fh:
                fh.write(encode_tree(final_tree))
    stats = transcript.outcome.final_stats
    sys.stdout.write(
        _dump(
            {
                "explorer": transcript.params["explorer"],
                "revealer": transcript.params["revealer"],
                "finished": transcript.outcome.finished,
                "final_round": transcript.outcome.final_round,
                "n": stats.n,
                "height": stats.height,
                "checkpoints": len(transcript.checkpoints),
            }
        )
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_transcript(transcript_from_json(Path(args.transcript).read_bytes()))
    sys.stdout.write(_dump(report.to_json_obj()))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_offline(args) -> int:
    tree = decode_tree(Path(args.tree).read_bytes())
    report = bounds_report(tree, args.k, brute=True if args.brute else None)
    sys.stdout.write(_dump(report.to_json_obj()))
    return EXIT_OK


# the flags each regime's picker cannot do without
PARAMS_REQUIRED = {"1": ("n", "k"), "2": ("eps",), "3": ("n",), "4": ("n", "D", "m")}


def _cmd_params(args) -> int:
    for field in PARAMS_REQUIRED[args.thm]:
        if getattr(args, field) is None:
            raise InvalidParameterError(f"--{field} is required with --thm {args.thm}")
    result = pick_params(
        f"thm{args.thm}",
        n=args.n,
        k=args.k,
        c=args.c if args.c is not None else 1,
        eps=args.eps,
        D=args.D,
        m=args.m,
    )
    sys.stdout.write(_dump(result.to_json_obj()))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec_path = Path(args.spec)
    spec = load_sweep_spec(spec_path)
    csv_text = run_sweep(spec, base_dir=spec_path.parent)
    _write_text(Path(args.out), csv_text)
    sys.stdout.write(f"wrote {csv_text.count(chr(10)) - 1} rows to {args.out}\n")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="treexplore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="play one exploration game")
    p_run.add_argument(
        "--explorer", required=True, choices=STRATEGY_NAMES + ("idle_then_greedy",)
    )
    p_run.add_argument("--revealer", required=True, choices=("lemma", "fixed"))
    p_run.add_argument("--n", type=int)
    p_run.add_argument("--L", type=int)
    p_run.add_argument("--m", type=int)
    p_run.add_argument("--k", type=int)
    p_run.add_argument("--mode", choices=("strict", "repaired"), default="repaired")
    p_run.add_argument("--view", choices=VIEW_MODES, default="game")
    p_run.add_argument("--cap", type=int, default=None)
    p_run.add_argument("--tree", help="tree JSON for --revealer fixed")
    p_run.add_argument("--switch-round", type=int, default=None, dest="switch_round")
    p_run.add_argument("--out", help="write the transcript JSON here")
    p_run.add_argument("--emit-tree", help="write the final tree (.json or .dot)", dest="emit_tree")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="verify a recorded transcript")
    p_ver.add_argument("--transcript", required=True)
    p_ver.set_defaults(func=_cmd_verify)

    p_off = sub.add_parser("offline", help="offline bounds for a known tree")
    p_off.add_argument("--tree", required=True)
    p_off.add_argument("--k", type=int, required=True)
    p_off.add_argument("--brute", action="store_true", help="force the exact search")
    p_off.set_defaults(func=_cmd_offline)

    p_par = sub.add_parser("params", help="regime parameter pickers")
    p_par.add_argument("--thm", required=True, choices=("1", "2", "3", "4"))
    p_par.add_argument("--n", type=int)
    p_par.add_argument("--k", type=int)
    p_par.add_argument("--c", type=int)
    p_par.add_argument("--eps", type=float)
    p_par.add_argument("--D", type=int)
    p_par.add_argument("--m", type=int)
    p_par.set_defaults(func=_cmd_params)

    p_sw = sub.add_parser("sweep", help="run a sweep spec to CSV")
    p_sw.add_argument("--spec", required=True)
    p_sw.add_argument("--out", required=True)
    p_sw.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleParamsError as exc:
        sys.stderr.write(f"infeasible parameters: {exc}\n")
        return EXIT_INFEASIBLE
    except IntegrityError as exc:
        sys.stderr.write(f"integrity error: {exc}\n")
        return EXIT_VIOLATION
    except (TreexploreError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
