"""Workload definitions: seeded inputs and the correctness check of every output.

assoc-solve  cold: ``assoc solve --mu=MU --degree 5`` then ``assoc check`` on it.
chord-dims   cold: ``cd dims`` at (strands, degree) = (3, 7) and (5, 4).
cli-mix      warm: a seeded closed-loop sequence of small requests of every kind.

Cold workloads start fresh interpreters for every repetition: ``assoc solve``
and the ``assoc check`` it feeds share one, and each ``cd dims`` gets its own,
as from a shell.  cli-mix runs every pass in one interpreter.  The recorded
outputs live in ``data/``; see ``record.py`` for how they were made.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

ASSOC_DEGREE = 5
CHORD_SHAPES = ((3, 7), (5, 4))


def hilbert_dimension(r: int, d: int) -> int:
    """[t^d] prod_{k=1}^{r-1} 1/(1 - k t): dimension of the degree-d chord piece."""
    coeffs = [1] + [0] * d
    for k in range(1, r):
        for i in range(1, d + 1):
            coeffs[i] += k * coeffs[i - 1]
    return coeffs[d]


def _load(name: str) -> dict:
    with open(DATA / name) as fh:
        return json.load(fh)


class Plan:
    """Requests of one repetition (cold) or pass (warm), and how to check them.

    A warm workload runs one untimed pass first, so lazy set-up such as the
    small chord tables is done before timing.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.cold = workload != "cli-mix"
        rng = random.Random(seed)
        if workload == "assoc-solve":
            recorded = _load("assoc_solve.json")
            self.mu = rng.choice(sorted(recorded["digests"]))
            self.expected = recorded["digests"][self.mu]
            self.note = f"mu={self.mu} degree={ASSOC_DEGREE}"
            self.requests = [
                {"argv": ["assoc", "solve", f"--mu={self.mu}", "--degree", str(ASSOC_DEGREE)]},
                {"argv": ["assoc", "check", "--json"], "stdin_from": 0},
            ]
        elif workload == "chord-dims":
            shapes = list(CHORD_SHAPES)
            rng.shuffle(shapes)
            self.shapes = shapes
            self.note = "shapes=" + ",".join(f"({r},{d})" for r, d in shapes)
            self.requests = [{"argv": ["cd", "dims", "--strands", str(r), "--degree", str(d),
                                       "--json"]} for r, d in shapes]
        elif workload == "cli-mix":
            # every recorded request in every pass, in an order set by the seed:
            # a different draw per seed moved req_p50_ms and req_p99_ms more
            # than the host did
            catalog = _load("cli_mix.json")["classes"]
            self.requests = [req for cls in sorted(catalog) for req in catalog[cls]]
            rng.shuffle(self.requests)
            self.note = f"{len(self.requests)} requests per pass, 1 client, closed loop"
        else:
            raise ValueError(f"unknown workload {workload!r}")

    def job_requests(self) -> list[dict]:
        keys = ("argv", "stdin", "stdin_from")
        return [{k: r[k] for k in keys if k in r} for r in self.requests]

    def interpreters(self) -> list[list[dict]]:
        """The requests of one repetition, split by the interpreter they run in.

        Each ``cd dims`` runs alone: in one interpreter the first shape's table
        stays cached, and the repetition took 11-35% longer with (3, 7) first
        (most likely the garbage collector sweeping that table), so the seed's
        order decided the time.
        """
        requests = self.job_requests()
        if self.workload == "chord-dims":
            return [[req] for req in requests]
        return [requests]

    def failures(self, record: dict) -> list[str]:
        """Problems with one pass's outputs; empty when every output is correct."""
        codes, digests = record["codes"], record["digests"]
        bad = []
        if self.workload == "assoc-solve":
            if codes[0] != 0:
                bad.append(f"assoc solve mu={self.mu}: exit {codes[0]}")
            elif digests[0] != self.expected:
                bad.append(f"assoc solve mu={self.mu}: output differs from the recorded digest")
            outputs = record.get("outputs")
            valid = False
            if codes[1] == 0 and outputs is not None:
                try:
                    valid = json.loads(outputs[1]).get("valid") is True
                except ValueError:
                    valid = False
            if not valid:
                bad.append(f"assoc check mu={self.mu}: exit {codes[1]}, not valid")
        elif self.workload == "chord-dims":
            for (r, d), rc, out in zip(self.shapes, codes, record.get("outputs", [])):
                want = hilbert_dimension(r, d)
                try:
                    got = json.loads(out).get("dimension")
                except ValueError:
                    got = None
                if rc != 0 or got != want:
                    bad.append(f"cd dims ({r},{d}): exit {rc}, got {got!r}, oracle {want}")
        else:
            for req, rc, dig in zip(self.requests, codes, digests):
                if rc != req["rc"] or dig != req["sha256"]:
                    bad.append(f"{' '.join(req['argv'])}: exit {rc} (recorded {req['rc']})"
                               f"{'' if dig == req['sha256'] else ', output differs'}")
        return bad
