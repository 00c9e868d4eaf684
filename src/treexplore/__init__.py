"""Simulator and verification harness for adversarial multi-agent tree exploration."""

from .adversary import (
    AdversaryParams,
    Alpha,
    CheckpointRevealer,
    FixedTreeRevealer,
    derive_params,
    fixed_tree_revealer,
    gadget_spec,
    initial_tree_of,
    max_team_size,
    revealer_of,
    selection_mask,
)
from .game import (
    NO_GADGETS,
    CheckpointRecord,
    ExplorerView,
    GameState,
    Gadgets,
    Outcome,
    RoundRecord,
    Transcript,
    is_explored,
    play,
    replay,
    transcript_from_json,
    transcript_to_json,
    validate_moves,
)
from .offline import (
    BoundsReport,
    Schedule,
    bounds_report,
    brute_opt,
    euler_schedule,
    euler_tour,
    trivial_lb,
    validate_schedule,
)
from .strategies import (
    GreedyFrontierExplorer,
    IdleExplorer,
    IdleThenExplorer,
    PhaseBfsExplorer,
    SingleDfsExplorer,
    make_explorer,
)
from .tree import (
    ROOT,
    RootedTree,
    TreeStats,
    attach_path_with_star,
    decode_tree,
    encode_tree,
    make_path_star,
    tree_to_dot,
)

__version__ = "0.1.0"
