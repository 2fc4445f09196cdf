"""The recorded benchmark outputs, checked byte for byte.

``perfbench/data`` records the exit code and the sha256 of stdout of every
``cli-mix`` request and of ``assoc solve --degree 5``.  These tests run the
requests in process through ``cli.run`` with the benchmark worker's own
``run_request``, so a change that moves any recorded output fails here too.
Run as a script, the module replays ``cli-mix`` and prints the request count
and the mismatches as JSON.  One more test installs the benchmark's tracer and
checks that every name it wraps still exists.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from braidops.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str) -> dict:
    with open(PERFBENCH / "data" / name) as fh:
        return json.load(fh)


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKER = _perfbench_module("worker")


def replay_cli_mix() -> tuple[int, list[str]]:
    """Run every recorded ``cli-mix`` request; return the count and the mismatches."""
    catalog = _load("cli_mix.json")["classes"]
    requests = [req for cls in sorted(catalog) for req in catalog[cls]]
    prior, bad = [], []
    for req in requests:
        rc, out, _ = WORKER.run_request(run, req, prior, WORKER.plain_clock)
        prior.append(out)
        same = WORKER.digest(out) == req["sha256"]
        if rc != req["rc"] or not same:
            bad.append(f"{' '.join(req['argv'])}: exit {rc} (recorded {req['rc']})"
                       f"{'' if same else ', output differs'}")
    return len(requests), bad


def test_cli_mix_recorded_outputs():
    count, bad = replay_cli_mix()
    assert count and not bad, bad[:5]


def test_cli_mix_recorded_outputs_under_optimize():
    """The same replay in one ``python -O`` interpreter, where every assert is stripped."""
    out = subprocess.run([sys.executable, "-O", __file__], capture_output=True, text=True,
                         timeout=300, env={"PYTHONPATH": str(PERFBENCH.parent / "src"),
                                           "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0, out.stderr[-2000:]
    count, bad = json.loads(out.stdout)
    assert count and not bad, bad[:5]


def test_assoc_solve_recorded_digest():
    recorded = _load("assoc_solve.json")
    argv = ["assoc", "solve", "--mu=1", "--degree", str(recorded["degree"])]
    rc, out, _ = WORKER.run_request(run, {"argv": argv}, [], WORKER.plain_clock)
    assert rc == 0
    assert WORKER.digest(out) == recorded["digests"]["1"]


def test_every_tracer_target_exists():
    """Every name the benchmark's tracer wraps is still defined, so no traced metric reads null."""
    tracer_module = _perfbench_module("tracer")
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        assert not tracer.missing, sorted(tracer.missing)
    finally:
        tracer.uninstall()


if __name__ == "__main__":
    print(json.dumps(replay_cli_mix()))
