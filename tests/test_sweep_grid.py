"""The sweep grid: the acceptance suite's small, medium and long-segment
instances, four explorers, repaired and strict mode (24 lemma cells).

The CSV of each instance is pinned byte for byte, and the report each
cell got from the evidence gathered while it played must equal the
report ``verify`` makes by replaying the cell's transcript, before and
after a write and reload.
"""

import hashlib

import pytest

from treexplore.game import transcript_from_json, transcript_to_json
from treexplore.harness import sweep
from treexplore.harness.verify import verify_transcript

# instance -> ((n, L, m, k), round cap, sha256 of the sweep's CSV)
SWEEP_CSV_DIGESTS = {
    "small": ((4096, 1, 3, 541), 1000, "f76538432e1dd4eee9f5dd5aa1069c0deed11279050da05f946726441f4fa7c9"),
    "medium": ((65536, 1, 4, 5878), 100, "96817320ebee373d982865e2f899c3cd27606fa4b851ca48fd33abffefe3ced1"),
    "long_segments": ((16384, 4, 3, 541), 100, "db6f88f9e52fe5e50d5633d3de935056c81735d8f3c70a698014fb2c57808aa2"),
}


@pytest.fixture(scope="module")
def sweep_grid():
    """instance -> (CSV text, [(transcript, evidence, live report)] per cell in row order)."""
    out = {}
    cells = []  # the cells of the instance that runs

    def live(transcript, evidence=None):
        report = verify_transcript(transcript, evidence=evidence)
        cells.append((transcript, evidence, report))
        return report

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "verify_transcript", live)
        for instance, ((n, L, m, k), cap, _) in SWEEP_CSV_DIGESTS.items():
            spec = {
                "revealer": "lemma",
                "explorers": ["idle", "single_dfs", {"name": "phase_bfs", "k": "n"}, "greedy_frontier"],
                "grid": [{"n": n, "L": L, "m": m, "k": k}],
                "modes": ["repaired", "strict"],
                "caps": [cap],
            }
            text = sweep.run_sweep(spec)
            out[instance] = (text, cells[:])
            cells.clear()
    return out


@pytest.mark.parametrize("instance", list(SWEEP_CSV_DIGESTS))
def test_sweep_csv_is_pinned(sweep_grid, instance):
    text, cells = sweep_grid[instance]
    assert len(cells) == 8 and text.count("\n") == 1 + 8
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_CSV_DIGESTS[instance][2]


@pytest.mark.parametrize("instance", list(SWEEP_CSV_DIGESTS))
def test_live_reports_equal_replayed_reports(sweep_grid, instance):
    _, cells = sweep_grid[instance]
    for transcript, evidence, live in cells:
        cell = (transcript.params["explorer"], transcript.params["mode"])
        assert evidence is not None, cell
        expected = live.to_json_obj()
        assert verify_transcript(transcript).to_json_obj() == expected, cell
        reloaded = transcript_from_json(transcript_to_json(transcript))
        assert verify_transcript(reloaded).to_json_obj() == expected, cell
