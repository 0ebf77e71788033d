"""Pieces of one job run at once, the first here and each other in a forked
worker; a piece whose worker failed runs here, so results and errors are the
serial ones."""

from __future__ import annotations

import contextlib
import os
import pickle
import signal


def _split(reps: range, n: int) -> list[range]:
    """reps cut into n contiguous ranges whose lengths differ by at most one."""
    size, extra = divmod(len(reps), n)
    ends = [reps.start + i * size + min(i, extra) for i in range(n + 1)]
    return [range(a, b) for a, b in zip(ends, ends[1:])]


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def count(most: int) -> int:
    """How many pieces, at most `most`, to run at once, one per usable CPU:
    only on Linux and from a process the OS counts one thread in, since
    forking one with other threads can deadlock the child."""
    if most < 2:
        return 1
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            single = ["Threads:", "1"] in (line.split() for line in fh)
    except OSError:
        return 1
    return min(_usable_cpus(), most) if single else 1


def _fork(run, piece, live: dict) -> int | None:
    """The pid of a worker that pickles run(piece) into a pipe, kept as live[pid],
    and exits 0 once it is written whole; None if no worker started. The worker
    closes the other workers' pipes and never returns into the caller's stack."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        status = 1
        try:
            for fd in (r, *live.values()):
                os.close(fd)
            with os.fdopen(w, "wb") as pipe:
                pickle.dump((run(piece),), pipe)
            status = 0
        finally:
            os._exit(status)  # no atexit handler or stdio flush: the parent owns those
    os.close(w)
    live[pid] = r
    return pid


def _result(pid: int, live: dict) -> tuple | None:
    """Worker pid's result as a 1-tuple, its pipe read to EOF before the worker
    is reaped; None unless the worker exited 0 and the result unpickles."""
    with os.fdopen(live[pid], "rb", closefd=False) as pipe:
        data = pipe.read()
    status = os.waitpid(pid, 0)[1]
    os.close(live.pop(pid))
    if status == 0:
        with contextlib.suppress(EOFError, pickle.UnpicklingError):  # a short result
            return pickle.loads(data)
    return None


def run_all(run, pieces: list) -> list:
    """[run(piece) for piece in pieces]: the first piece runs here while each
    other runs in a forked worker, and a piece whose worker failed runs here."""
    first, *rest = pieces
    live = {}  # the pipe of each worker not yet reaped, by pid
    try:
        pids = [_fork(run, piece, live) for piece in rest]
        results = [run(first)]
        for piece, pid in zip(rest, pids):
            got = _result(pid, live) if pid else None
            results.append(got[0] if got else run(piece))
        return results
    finally:
        for pid, fd in live.items():  # run raised here: no worker outlives run_all
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(fd)
