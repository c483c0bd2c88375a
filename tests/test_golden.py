"""Golden outputs: each command of golden_corpus.jsonl, run in-process
through cli.main, must give the exit code, the stdout sha256 and the
stderr (elapsed_ms masked) that its line holds, and each cache file the
corpus names must have the sha256 it holds.

The commands share one cache directory, "{cache}" in an argv, in file
order: a listing with --cache is a miss the first time and a hit after.
The corpus pins bytes; it does not say they are right.  A change that
alters output on purpose rewrites the corpus from its own argvs with

    PYTHONPATH=src python tests/test_golden.py

and lists each changed line, with the reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile

from congruence_atoms import cli

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_corpus.jsonl")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _outcome(entry, cache):
    """The corpus line `entry` as replayed now, over the cache directory
    `cache`."""
    if "cache_file" in entry:
        with open(os.path.join(cache, entry["cache_file"]), "rb") as fh:
            return {"cache_file": entry["cache_file"], "sha256": _sha256(fh.read())}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([cache if a == "{cache}" else a for a in entry["argv"]])
    return {
        "argv": entry["argv"],
        "exit": code,
        "stdout_sha256": _sha256(out.getvalue().encode()),
        "stderr": re.sub(r'(elapsed_ms(=|":))\d+', r"\1*", err.getvalue()),
    }


def _replay():
    """The corpus lines and, in the same order, their replayed outcomes."""
    with open(CORPUS) as fh:
        entries = [json.loads(line) for line in fh]
    with tempfile.TemporaryDirectory() as cache:
        return entries, [_outcome(entry, cache) for entry in entries]


def test_golden_corpus():
    entries, replayed = _replay()
    for want, got in zip(entries, replayed):
        assert got == want


if __name__ == "__main__":
    _, replayed = _replay()
    with open(CORPUS, "w") as fh:
        fh.writelines(json.dumps(entry) + "\n" for entry in replayed)
