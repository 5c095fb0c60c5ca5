"""The same bits whatever numpy's CPU dispatch.

numpy picks a SIMD kernel per ufunc at run time, and kernels of different
levels may round differently (`np.exp` and `np.arctan2` do on x86-64 between
the X86_V2 baseline and AVX-512).  Each bundled scenario, cut to 2 s, runs
once in this process and once in a child whose dispatch is held to numpy's
baseline; every log array, metric series and summary value must agree in
dtype, shape and bytes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import swarmform
from swarmform import parse_scenario, run

from .conftest import SCENARIOS

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath

ABOVE_BASELINE = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
BUNDLED = sorted(SCENARIOS.glob("*.yaml"))


def outputs(path) -> dict[str, np.ndarray]:
    """Every array a run of the scenario file, cut to 2 s, gives out."""
    log, metrics = run(replace(parse_scenario(path), t_final=2.0))
    out = {f"log.{f.name}": getattr(log, f.name) for f in fields(log)}
    for name in ("times", "formation_error", "disagreement", "soft_set_distance"):
        out[f"metrics.{name}"] = getattr(metrics, name)
    out["summary"] = np.array([float(v) for v in metrics.summary().values()])
    return out


@pytest.mark.filterwarnings("ignore::swarmform.PenetrationWarning")
@pytest.mark.skipif(not ABOVE_BASELINE, reason="numpy dispatches nothing above its "
                    "baseline on this CPU, so there is no second level to compare")
def test_bundled_runs_are_bit_identical_at_the_baseline_dispatch(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(ABOVE_BASELINE),
               PYTHONPATH=os.pathsep.join([str(Path(swarmform.__file__).parents[1]), str(root)]))
    child = ("import sys, numpy as np\n"
             "from tests.test_cpu_dispatch import ABOVE_BASELINE, outputs\n"
             "assert not ABOVE_BASELINE, f'still dispatched: {ABOVE_BASELINE}'\n"
             "for i, path in enumerate(sys.argv[1:]): np.savez(f'{i}.npz', **outputs(path))")
    # The child runs while this process computes its own outputs.
    with subprocess.Popen([sys.executable, "-W", "ignore", "-c", child, *map(str, BUNDLED)],
                          cwd=tmp_path, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE) as proc:
        here_all = [outputs(path) for path in BUNDLED]
        _, err = proc.communicate()
    assert proc.returncode == 0, err.decode()
    for i, (path, ours) in enumerate(zip(BUNDLED, here_all)):
        with np.load(tmp_path / f"{i}.npz") as baseline:
            for name, here in ours.items():
                there = baseline[name]
                assert (there.dtype, there.shape) == (here.dtype, here.shape), (path.name, name)
                assert there.tobytes() == here.tobytes(), (path.name, name)
