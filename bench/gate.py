"""The answer key and the correctness gate.

The key holds, for every job on a sparse input, the sha256 of its stdout,
its exit code and its basis-free lines.  A sparse job passes when stdout
hashes the same and the exit code agrees: the CLI output is byte-for-byte
deterministic.  A dense twin prints the same algebra in another basis, so
only its basis-free lines (verdict, certificate, dimensions, monomial
count, comparison) are compared, with the key entry of its original.
"""

from __future__ import annotations

import hashlib
import json
import os

from workloads import is_twin, original_id

KEY_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answer_key.json")

_BASIS_FREE = (
    "check:",
    "algebra:",
    "status:",
    "simple:",
    "certificate:",
    "ideal dim =",
    "derivations: dim",
    "inner derivations: dim",
    "compare:",
    "identities:",
    "monomials:",
    "dim =",
    "lifting dim =",
    "lifting contained:",
    "lifting equal:",
)


def basis_free_lines(stdout):
    return [line for line in stdout.splitlines() if line.startswith(_BASIS_FREE)]


def key_entry(exit_code, stdout):
    return {
        "exit": exit_code,
        "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
        "basis_free": basis_free_lines(stdout),
    }


def load_key(path=KEY_PATH):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(key, job, exit_code, stdout):
    """None when the job's answer matches the key, else the reason."""
    entry = key.get(original_id(job))
    if entry is None:
        return "no key entry"
    if exit_code != entry["exit"]:
        return "exit %r, keyed %r" % (exit_code, entry["exit"])
    if is_twin(job):
        if basis_free_lines(stdout) != entry["basis_free"]:
            return "basis-free lines differ from the original's"
        return None
    if key_entry(exit_code, stdout)["sha256"] != entry["sha256"]:
        return "stdout differs from the keyed bytes"
    return None


def keyed_ids(workloads):
    """Every id the key must hold: each sparse job, and each twin's original."""
    return sorted({original_id(job) for jobs in workloads.values() for job in jobs})

