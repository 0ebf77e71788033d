"""monte_carlo's replication ranges and load_csv's byte ranges in forked
workers give the serial report, dataset and errors.

Workers start only in a process the OS counts one thread in, and a default
OpenBLAS keeps a thread pool, so the fork checks run in a subprocess with
BLAS pinned to one thread: this file, run as a script. It asserts that the
forks happened, and that none is left when monte_carlo or load_csv returns
or raises.
"""

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from factorbounds import _workers, cli, data, simulate
from factorbounds.data import ObservedDataset, _load_rows, load_csv, save_csv
from factorbounds.design import enumerate_assignments
from factorbounds.errors import FactorBoundsError
from factorbounds.simulate import ScenarioConfig, load_scenario, monte_carlo

ROOT = pathlib.Path(__file__).resolve().parents[1]
MARKER = "buffered before any fork"

# the retrying fresh scenario of test_report_bytes_do_not_depend_on_the_chunk_size:
# its replications 3, 20 and 23 draw 2, 2 and 3 attempts, and a violate token
# puts a defier on factor 2
RETRYING = {
    "K": 2,
    "N": 24,
    "factors": [
        {"always": 0.0, "complier": 0.1, "depends_on": [2], "upgrade": 0.5, "worst": [-1]},
        {"always": 0.1, "complier": 0.6},
    ],
    "outcome": {"alpha": [0.1, 0.3], "beta": [[0.2, 0.4], [0.1, 0.2]], "model": "m1"},
    "require": ["monotone:1", "profile:1", "first_stage:1"],
    "violate": ["monotone:2"],
    "seed": 4,
    "targets": [
        {"factor": 1, "method": "exclusion"},
        {"factor": 1, "method": "adjusted"},
        {"factor": 2, "method": "simple"},
    ],
}


def test_split_cuts_contiguous_near_equal_ranges():
    assert simulate._split(range(50), 2) == [range(0, 25), range(25, 50)]
    assert simulate._split(range(25, 50), 4) == [range(25, 32), range(32, 38), range(38, 44), range(44, 50)]
    assert simulate._split(range(3), 1) == [range(3)]


def test_forked_workers_give_the_serial_reports_and_errors():
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [MARKER]  # no worker flushed the parent's buffered output


# --------------------------------------------------- the script's checks


forks, here = [], []  # the workers started, and the replications or byte ranges the parent ran
PARENT, RUN_CHUNK, PARSE_RANGE, FORK = os.getpid(), simulate._run_chunk, data._parse_range, os.fork
killing = False  # whether a worker kills itself before its first chunk or byte range
descriptors = 0  # the parent's open descriptors before the study


def counted_fork():
    pid = FORK()
    if pid:
        forks.append(pid)
    return pid


def refused():
    raise OSError("no fork")


def watched_chunk(config, reps, *args):
    """_run_chunk, recording the parent's replications; a worker that holds
    a descriptor besides its pipe exits 1, and one that is killing dies."""
    if os.getpid() == PARENT:
        here.extend(reps)
    elif killing:
        os.kill(os.getpid(), signal.SIGKILL)
    elif len(os.listdir("/proc/self/fd")) != descriptors + 1:
        os._exit(1)
    RUN_CHUNK(config, reps, *args)


def watched_parse(path, design, names, span):
    """_parse_range, recording the parent's byte ranges; a worker that holds
    a descriptor besides its pipe exits 1, and one that is killing dies."""
    if os.getpid() == PARENT:
        here.append(span)
    elif killing:
        os.kill(os.getpid(), signal.SIGKILL)
    elif len(os.listdir("/proc/self/fd")) != descriptors + 1:
        os._exit(1)
    return PARSE_RANGE(path, design, names, span)


def watch(call, workers):
    """(call()'s result, or its error's type and message; the number of
    forks; what the parent ran) at `workers` usable CPUs."""
    global descriptors
    _workers._usable_cpus = lambda: workers
    forks.clear()
    here.clear()
    descriptors = len(os.listdir("/proc/self/fd"))
    try:
        out = call()
    except FactorBoundsError as e:
        out = (type(e).__name__, str(e))
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)
    return out, len(forks), list(here)


def run_cli(argv):
    """The CLI's exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv), err.getvalue()


def study(config, R, workers, argv=None):
    """(the report, or the error's type and message; the number of forks; the
    replications the parent ran) at `workers` usable CPUs; given argv, the
    report is the CLI's (exit code, stderr)."""
    return watch(lambda: run_cli(argv) if argv else monte_carlo(config, R).to_json(), workers)


def same_for_workers(config, R, workers=(2, 3), argv=None):
    """The serial result, after checking that each count of workers forked
    and gave it: a report from the parent's range and the workers', an error
    after the parent ran the replications the serial run ran."""
    serial, none, serial_here = study(config, R, 1, argv)
    assert none == 0 and serial_here == list(range(R))[: len(serial_here)]
    for w in workers:
        first = list(simulate._split(range(R), w)[0]) if isinstance(serial, str) else serial_here
        assert study(config, R, w, argv) == (serial, w - 1, first), w
    return serial


def check_reports() -> None:
    retrying = ScenarioConfig.from_dict(RETRYING)
    simulate._CHUNK_CELLS = 7 * (retrying.N << retrying.K)  # 7 replications per chunk
    same_for_workers(retrying, 30)
    simulate._CHUNK_CELLS = 1 << 16

    fixed = dataclasses.replace(load_scenario(ROOT / "scenarios" / "well_separated.json"), population_mode="fixed")
    assert json.loads(same_for_workers(fixed, 24))["targets"][0]["n_ok"] == 24  # 8 replications per chunk

    clone = load_scenario(ROOT / "scenarios" / "clone_scaling.json")
    assert clone.population_mode == "clone"
    simulate._CHUNK_CELLS = 5 * (clone.N << clone.K)
    same_for_workers(clone, 15)
    simulate._CHUNK_CELLS = 1 << 16


def check_errors(tmp: pathlib.Path) -> None:
    # at 2 attempts replication 23 exhausts them: a worker raises, and its range runs again here
    retrying = ScenarioConfig.from_dict(RETRYING)
    simulate._CHUNK_CELLS, simulate._RETRY_CAP = 7 * (retrying.N << retrying.K), 2
    name, message = same_for_workers(retrying, 42)
    assert name == "GenerationError" and "after 2 attempts" in message
    path = tmp / "retrying.json"
    path.write_text(json.dumps(RETRYING))
    code, err = same_for_workers(None, 42, argv=["simulate", str(path), "-R", "42"])
    assert code == 3 and err == f"error: GenerationError: {message}\n"
    simulate._CHUNK_CELLS, simulate._RETRY_CAP = 1 << 16, 100
    # every replication exhausts its attempts: the first range raises here, and the workers are killed
    hopeless = dataclasses.replace(retrying, factors=(simulate.FactorSpec(complier=0.0), retrying.factors[1]))
    simulate._CHUNK_CELLS = hopeless.N << hopeless.K
    assert same_for_workers(hopeless, 4)[0] == "GenerationError"
    simulate._CHUNK_CELLS = 1 << 16


def check_failed_workers() -> None:
    # a fork that fails, a worker that dies, a short result and a whole one from a worker
    # killed before it exits each leave the range to run here
    global killing
    config = ScenarioConfig.from_dict(RETRYING)
    simulate._CHUNK_CELLS = 7 * (config.N << config.K)
    serial, _, _ = study(config, 30, 1)
    every = list(range(30))

    os.fork = refused
    assert study(config, 30, 3) == (serial, 0, every)
    os.fork = counted_fork

    killing = True
    assert study(config, 30, 3) == (serial, 2, every)
    killing = False

    def written_whole_then_killed(obj, pipe):
        pipe.write(pickle.dumps(obj))
        pipe.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    dump = pickle.dump
    for pickle.dump in (lambda obj, pipe: pipe.write(pickle.dumps(obj)[:-9]), written_whole_then_killed):
        assert study(config, 30, 3) == (serial, 2, every)
    pickle.dump = dump

    # a live second thread keeps the run serial
    os.fork = lambda: pytest.fail("forked from a process with two threads")
    done = threading.Event()
    thread = threading.Thread(target=done.wait, daemon=True)
    thread.start()
    try:
        assert study(config, 30, 3) == (serial, 0, every)
    finally:
        done.set()
        thread.join()
    os.fork = counted_fork
    simulate._CHUNK_CELLS = 1 << 16


def arrays(loaded):
    """Every array of a dataset, bit for bit."""
    return loaded.arm.tolist(), loaded.uptake.tolist(), loaded.outcome.view(np.int64).tolist()


def fast(path):
    """The array parse's dataset of path: it must accept the file."""
    return arrays(data._load_canonical(path, False, None))


def ranges(path, workers):
    """The byte ranges of path's lines at `workers` usable CPUs."""
    _workers._usable_cpus = lambda: workers
    return data._ranges(path, len("z1,z2,d1,d2,y\r\n"), path.stat().st_size)


def check_loads(tmp: pathlib.Path) -> None:
    global killing
    data._MIN_RANGE = 1 << 12  # the 2000 rows, about 60 KiB, take one range per worker
    rng = np.random.default_rng(3)
    n = 2000
    uptake = rng.choice(np.array([-1, 1], dtype=np.int8), (n, 2))
    path = tmp / "rows.csv"
    save_csv(ObservedDataset(enumerate_assignments(2), rng.integers(0, 4, n), uptake, rng.random(n)), path)
    want = arrays(_load_rows(path, False, None))
    every = ranges(path, 3)
    for w in (1, 2, 3):
        assert len(ranges(path, w)) == w
        assert watch(lambda: fast(path), w) == (want, w - 1, ranges(path, w)[:1]), w

    # a bad token in the last worker's range leaves the whole file to the row parser
    lines = path.read_bytes().split(b"\r\n")
    lines[1990] = b"1,1,1,2," + lines[1990].rsplit(b",", 1)[1]  # line 1991; the header is line 1
    bad = tmp / "bad.csv"
    bad.write_bytes(b"\r\n".join(lines))
    assert ranges(bad, 3)[2][0] < sum(map(len, lines[:1990])) + 2 * 1990
    message = "line 1991, column d2: 2 is not -1/+1"
    for w in (1, 2, 3):
        assert watch(lambda: arrays(load_csv(bad)), w) == (("InvalidInputError", message), w - 1, ranges(bad, w)[:1]), w
        assert watch(lambda: run_cli(["analyze", str(bad)]), w)[:2] == ((2, f"error: {message}\n"), w - 1), w

    # a fork that fails, a worker killed before it writes and a short result each leave the range to run here
    os.fork = refused
    assert watch(lambda: fast(path), 3) == (want, 0, every)
    os.fork = counted_fork
    killing = True
    assert watch(lambda: fast(path), 3) == (want, 2, every)
    killing = False
    dump = pickle.dump
    pickle.dump = lambda obj, pipe: pipe.write(pickle.dumps(obj)[:-9])
    assert watch(lambda: fast(path), 3) == (want, 2, every)
    pickle.dump = dump

    # a live second thread keeps the parse serial: one range, parsed here
    os.fork = lambda: pytest.fail("forked from a process with two threads")
    done = threading.Event()
    thread = threading.Thread(target=done.wait, daemon=True)
    thread.start()
    try:
        assert watch(lambda: fast(path), 3) == (want, 0, ranges(path, 1))
    finally:
        done.set()
        thread.join()
    os.fork = counted_fork
    data._MIN_RANGE = 1 << 20


if __name__ == "__main__":
    import tempfile

    print(MARKER)  # held in stdout's buffer, which a worker must not flush
    os.fork, simulate._run_chunk, data._parse_range = counted_fork, watched_chunk, watched_parse
    check_reports()
    with tempfile.TemporaryDirectory() as tmp:
        check_errors(pathlib.Path(tmp))
        check_loads(pathlib.Path(tmp))
    check_failed_workers()
