"""What a fresh process imports: `import arw` loads no SciPy, a trial loads
only `scipy.sparse` and its csgraph, and the lazy csgraph import is safe on
the two threads of an overlapped first count."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _fresh(script: str):
    """Run `script` in a new interpreter that imports arw from the source
    tree; return the JSON of its last output line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_and_trial_scipy_footprint():
    loaded = _fresh(
        "import json, sys\n"
        "import arw.cli\n"
        "from arw import experiments\n"
        f"cli = {LOADED}\n"
        "experiments.run_trial(2, 5, experiments.MPolicy.parse('fixed:32'), 1, 0)\n"
        f"print(json.dumps([cli, {LOADED}]))\n"
    )
    cli, trial = loaded
    assert cli == []
    assert "scipy.sparse.csgraph" in trial
    for module in ("scipy.fft", "scipy.special", "scipy.optimize"):
        assert module not in trial


def test_parallel_trials_load_csgraph_before_forking():
    # forked workers inherit the parent's modules, so each pool's workers
    # do not import csgraph again
    before, after = _fresh(
        "import json, sys\n"
        "from arw import experiments\n"
        f"before = {LOADED}\n"
        "experiments.run_trials(2, 5, 2, experiments.MPolicy.parse('fixed:32'), 1, parallelism=2)\n"
        f"print(json.dumps([before, {LOADED}]))\n"
    )
    assert before == []
    assert "scipy.sparse.csgraph" in after


def test_first_count_imports_csgraph_on_both_threads():
    # d=2, n=325 at per_L:16 synthesizes a 608^2 grid, above the overlap
    # floor; with the overlap forced, the very first analyze reaches the
    # lazy csgraph import on the worker thread and on the calling thread
    # at once, and must give the summary of a process that imported it first
    script = (
        "import dataclasses, json, sys\n"
        "import numpy as np\n"
        "{prime}"
        "from arw import field, lattice, nodal\n"
        "assert (2 * 304) ** 2 >= nodal._OVERLAP_CELLS\n"
        "nodal._spare_core = lambda: True\n"
        "cold = 'scipy.sparse.csgraph' not in sys.modules\n"
        "sample = field.sample_coefficients(lattice.enumerate_shell(2, 325), 5150, 0)\n"
        "summary = nodal.analyze(sample, 304)\n"
        "out = dict()\n"
        "for f in dataclasses.fields(summary):\n"
        "    v = getattr(summary, f.name)\n"
        "    out[f.name] = [str(v.dtype), v.tolist()] if isinstance(v, np.ndarray) else v\n"
        "print(json.dumps([cold, out]))\n"
    )
    cold, lazy = _fresh(script.format(prime=""))
    primed, eager = _fresh(script.format(prime="import scipy.sparse.csgraph\n"))
    assert cold and not primed
    assert lazy == eager
