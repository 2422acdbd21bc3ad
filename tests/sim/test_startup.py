"""Start-up guards: which modules each front-end path and each job loads.

These check module sets, never wall time (docs/performance.md,
"Start-up"):

* a path that does not simulate — ``import repro.cli``, ``import
  repro.serve.api``, ``repro bench --list``, and cache-served ``repro
  bench`` reruns with and without ``--trace`` — must not load numpy or
  the simulator;
* after the runner's pre-fork preload, a job of every kind on both
  backends must import nothing, so forked workers never import;
* the ``repro serve`` event loop must import nothing while it serves
  jobs: the simulator loads in the threads that supervise them.

Each check runs in a fresh interpreter, because the test process itself
has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.cache import ResultCache
from repro.sim.parallel import expand_matrix, run_matrix, trace_bench_pairs
from repro.workloads.ingest import synthesize_k6_trace

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules only a simulation needs.
HEAVY = (
    "numpy",
    "repro.sim.system",
    "repro.sim.backends.functional",
    "repro.sim.backends.vectorized",
)

FAMILY = "fig02_baseline_hit_rates"
SCALE = 0.01


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_heavy(statement: str) -> list[str]:
    """The :data:`HEAVY` modules loaded after running ``statement``."""
    out = run_python(
        "import json, sys\n"
        f"{statement}\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    return json.loads(out.splitlines()[-1])


def cli(argv: list[str]) -> str:
    """A ``repro.cli.main`` call whose exit status must be 0."""
    return (
        "import repro.cli\n"
        f"assert repro.cli.main({argv!r}) == 0\n"
    )


@pytest.fixture(scope="module")
def filled(tmp_path_factory) -> dict[str, str]:
    """A cache holding one bench family and one trace family."""
    root = tmp_path_factory.mktemp("startup")
    trace = synthesize_k6_trace(root / "k6_startup.trc.gz", accesses=2_000,
                                footprint_pages=256, seed=2)
    cache = ResultCache(root / "cache")
    pairs = expand_matrix([FAMILY], scale=SCALE) + trace_bench_pairs(
        str(trace), scale=SCALE
    )
    outcomes = run_matrix(pairs, workers=1, cache=cache)
    assert all(o.status == "ok" and not o.cached for o in outcomes)
    return {"cache": str(root / "cache"), "trace": str(trace)}


@pytest.mark.parametrize("statement", [
    "import repro.cli",
    "import repro.serve.api",
    cli(["bench", "--list"]),
], ids=["import-cli", "import-serve-api", "bench-list"])
def test_front_end_loads_no_simulator(statement):
    assert loaded_heavy(statement) == []


def assert_all_cached(summary: Path) -> None:
    """The rerun was warm: every job came from the cache."""
    data = json.loads(summary.read_text())
    assert data["simulated"] == 0 and data["cache_hits"] == data["unique_jobs"] > 0


def test_warm_bench_loads_no_simulator(filled, tmp_path):
    summary = tmp_path / "summary.json"
    argv = ["bench", "--only", FAMILY, "--scale", str(SCALE), "--jobs", "2",
            "--cache-dir", filled["cache"], "--json", str(summary)]
    heavy = loaded_heavy(cli(argv))
    assert_all_cached(summary)
    assert heavy == []


def test_warm_trace_bench_loads_no_simulator(filled, tmp_path):
    summary = tmp_path / "summary.json"
    argv = ["bench", "--trace", filled["trace"], "--only", "trace_",
            "--scale", str(SCALE), "--jobs", "2", "--cache-dir", filled["cache"],
            "--json", str(summary)]
    heavy = loaded_heavy(cli(argv))
    assert_all_cached(summary)
    assert heavy == []


def test_serve_event_loop_imports_nothing(tmp_path):
    """Lazy imports run in supervising threads, never on the daemon's loop:
    a first import there would stall every connection while it ran."""
    out = run_python(
        "import json, sys, threading\n"
        "from repro.serve.api import ServerThread\n"
        "from repro.serve.app import ServeApp, ServeSettings\n"
        "from repro.serve.client import ServeClient\n"
        "from repro.sim.cache import ResultCache\n"
        f"cache = ResultCache({str(tmp_path / 'cache')!r})\n"
        "server = ServerThread(ServeApp(ServeSettings(workers=1), cache=cache))\n"
        "url = server.start()\n"
        "on_loop = []\n"
        "def hook(event, args):\n"
        "    if event == 'import' and threading.current_thread().name == 'repro-serve':\n"
        "        on_loop.append(args[0])\n"
        "sys.addaudithook(hook)\n"
        "client = ServeClient(url, client_name='startup')\n"
        "job = {'workload': 'MM', 'policy': 'least-tlb', 'scale': 0.01, 'seed': 3,\n"
        "       'backend': 'functional'}\n"
        "for _ in range(2):  # a new job, then a cache hit\n"
        "    submitted = client.submit({'jobs': [job]})\n"
        "    assert client.wait(submitted['job'], timeout=120)['state'] == 'done'\n"
        "    list(client.events(submitted['job']))\n"
        "    client.result(submitted['job'])\n"
        "client.health()\n"
        "client.cache_stats()\n"
        "server.stop()\n"
        "print(json.dumps(on_loop))\n"
    )
    assert json.loads(out.splitlines()[-1]) == []


def test_preloaded_jobs_import_nothing(filled):
    """What a forked worker would import: nothing, for every job kind."""
    out = run_python(
        "import json, sys\n"
        "from repro.reporting.export import result_to_dict\n"
        "from repro.sim.parallel import JobSpec\n"
        "from repro.sim.resilience import preload_job_closure\n"
        "preload_job_closure()\n"
        "specs = [\n"
        "    JobSpec(kind, workload, 'least-tlb', None, 0.01, 1, options=options,\n"
        "            backend=backend)\n"
        "    for backend in ('event', 'functional')\n"
        "    for kind, workload, options in (\n"
        "        ('single', 'MM', ()), ('multi', 'W1', ()), ('mix', 'W17', ()),\n"
        "        ('alone', 'KM', ()),\n"
        f"        ('trace', {filled['trace']!r}, (('split', 'address-hash'),)),\n"
        "    )\n"
        "]\n"
        "before = set(sys.modules)\n"
        "for spec in specs:\n"
        "    result_to_dict(spec.execute(), include_stream=True)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert json.loads(out.splitlines()[-1]) == []
