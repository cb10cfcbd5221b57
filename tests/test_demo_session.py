"""Smoke test: scripts/demo_session.py runs end to end and shows the protocol."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_demo_session_runs_and_shows_the_wire():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "demo_session.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    for answer in ("-> {'count': 2}", "-> {'count': 1}", "-> {'ids': [2, 5]}",
                   "-> {'ids': [2, 5, 7]}", "-> {'ids': [7]}", "-> {'count': 5}",
                   "-> DENIED (auth:"):
        assert answer in out, out
    wire = out[out.index("what the data server sees"):].splitlines()
    frames = [line for line in wire if line.lstrip().startswith(("send", "recv"))]
    # a boolean with cross-terms takes two rounds; a count without them, or
    # over an empty chain, one
    assert [line.split()[1] for line in frames] == [
        "type=1", "type=2", "type=3", "type=4", "type=1", "type=4", "type=1", "type=4"]
    inits = [line for line in frames if "type=1" in line]
    assert all("'n_pos':" in line and "'n_neg':" in line for line in inits)
    assert "'n_pos': 2, 'n_neg': 0" in inits[0] and "'n_pos': 0, 'n_neg': 0" in inits[1]
    assert "'n_pos': 1, 'n_neg': 0" in inits[2]
    # a token frame holds the token rows and nothing else: one row of the
    # 2 declared tokens for each of the anchor chain's 3 tuples
    [tokens] = [line for line in frames if "type=3" in line]
    assert tokens.split("type=3 ", 1)[1] == "<3 rows of 2 tokens, 198 raw bytes>"
    assert not any("session" in line for line in frames)
