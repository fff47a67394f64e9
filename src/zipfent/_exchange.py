"""Forked processes that each compute one job and then exchange bytes: ``fork_map``.

It knows nothing of text: ``corpus`` gives it one share of the input per
process, and the bytes are the words that one share sends another.  Only
results, bytes and exceptions are pickled; the functions and the jobs reach
the children by fork.
"""

from __future__ import annotations

import os
import pickle

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable
    from typing import Any, BinaryIO


def fork_map(count: Callable[..., Any], merge: Callable[..., Any], jobs: list[Any]) -> list[Any]:
    """[merge(kept, received) for each job w], where ``sent, kept = count(w, job)``.

    Each of at least one job runs in a process of its own: this one
    computes job 0 and forks one child for each other.  sent maps the index
    of another job to the bytes it is sent, and received lists the bytes a
    job is sent, in job order; kept stays in the job's process.  A child
    pickles (ok, sent) into a pipe of its own, reads received from a second
    pipe, and pickles (ok, its result or its exception) into the first.
    This process reads every child's sent before it writes to any child,
    and passes on the bytes unread: so no process waits to write to one that
    waits to write, and the exchange cannot deadlock for any number of jobs.
    The first failure in job order is raised here, a child that ends without
    a result is a ChildProcessError, and every child is reaped before this
    returns or raises.
    """
    pids: list[int] = []
    outs: list[BinaryIO] = []  # each child's results
    ins: list[BinaryIO] = []  # the bytes each child is sent
    mail: list[list[bytes]] = [[] for _ in jobs]  # the bytes sent to each job, in job order
    done = False
    try:
        for w in range(1, len(jobs)):
            out_read, out_write = os.pipe()
            in_read, in_write = os.pipe()
            outs.append(open(out_read, "rb"))
            ins.append(open(in_write, "wb"))
            try:
                pid = os.fork()
                if pid == 0:
                    for pipe in outs + ins:
                        pipe.close()
                    _serve(count, merge, w, jobs[w], out_write, in_read)  # never returns
            finally:
                os.close(out_write)
                os.close(in_read)
            pids.append(pid)
        sent, kept = count(0, jobs[0])
        for sent in [sent, *map(_receive, pids, outs)]:
            for to, data in sent.items():
                mail[to].append(data)
        del sent
        for pid, inbox, received in zip(pids, ins, mail[1:]):
            try:
                with inbox:
                    pickle.dump(received, inbox, pickle.HIGHEST_PROTOCOL)
            except BrokenPipeError:
                raise ChildProcessError(f"worker process {pid} ended without a result") from None
            received.clear()
        results = [merge(kept, mail[0])] + list(map(_receive, pids, outs))
        done = True
        return results
    finally:
        for pipe in outs + ins:
            try:
                pipe.close()
            except OSError:  # bytes left in the buffer for a child that has died
                pass
        if not done:
            # a child may still be computing results nobody will read
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _receive(pid: int, pipe: BinaryIO) -> Any:
    """The next result child pid of ``fork_map`` pickled into pipe; its exception is raised."""
    try:
        ok, result = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # none, or cut short
        raise ChildProcessError(f"worker process {pid} ended without a result") from None
    if not ok:
        raise result
    return result


def _serve(count: Callable[..., Any], merge: Callable[..., Any], w: int, job: Any, out_fd: int, in_fd: int) -> None:
    """In child w of ``fork_map``: pickle count's sent to out_fd, read what in_fd sends and pickle merge's result.

    Stops after the first failure and leaves with ``os._exit``, so that the
    child runs none of the parent's clean-up and flushes none of its buffers.
    """
    code = 1
    try:
        with open(out_fd, "wb") as out, open(in_fd, "rb") as inbox:
            try:
                sent, kept = count(w, job)
            except Exception as exc:
                pickle.dump((False, exc), out, pickle.HIGHEST_PROTOCOL)
            else:
                pickle.dump((True, sent), out, pickle.HIGHEST_PROTOCOL)
                del sent
                # written whole before anything is read
                out.flush()
                received = pickle.load(inbox)
                try:
                    item = (True, merge(kept, received))
                except Exception as exc:
                    item = (False, exc)
                pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)
