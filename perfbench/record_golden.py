"""Record the golden subsamples the benchmark checks runs against.

    python3 perfbench/record_golden.py [workload ...]

Writes perfbench/golden/<workload>.npz from a run on DEFAULT_SEED: positions
and parameter vectors at about GOLDEN_TICKS evenly spaced ticks of about
GOLDEN_ROBOTS robots, and for `robot_tick` the planner outputs of every
input set.  Re-record only when a change is meant to alter trajectories.
"""

from __future__ import annotations

import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from swarmform.apf import PenetrationWarning  # noqa: E402

import workloads as wl  # noqa: E402
from worker import one_pass, setup  # noqa: E402


def record(name: str) -> Path:
    workload = wl.WORKLOADS[name]
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        s = setup(workload, wl.DEFAULT_SEED, Path(tmp))
        if workload.jobs_timed:
            data = wl.golden_record(wl.run_job(s.path, Path(tmp) / "job").log)
        else:
            outs, _ = one_pass(s.sets, s.scenario.dt, None)
            data = wl.golden_record(s.log, s.sets, outs)
    wl.GOLDEN.mkdir(exist_ok=True)
    path = wl.golden_path(workload)
    np.savez_compressed(path, **data)
    return path


if __name__ == "__main__":
    warnings.simplefilter("ignore", PenetrationWarning)
    for name in sys.argv[1:] or list(wl.WORKLOADS):
        print(record(name))
