"""Two cores for independent jobs: one forked worker produces every other item.

``interleaved`` yields ``produce(item)`` for every item, in order. With two
items or more, where ``os.fork`` exists, it forks one worker at the first
item. The worker produces the odd items and sends each result through a pipe,
while the calling process produces the even ones. Each result must be a
pure function of its item, so that the results are the same as from one
process.
``runner`` uses it for the replicas of ``simulate``. Under the CLI the fork is
made from a one-thread process: ``moneygas.cli`` keeps numpy's OpenBLAS pool
from starting, and a fork with another thread alive can deadlock the child
(Python 3.12 and later warn of it).

The frames on the pipe are pickles, one per item: (True, the result), or
(False, the worker's failure) in place of its first failed item. No
received result is held here once it has been yielded.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Callable, Iterator, Sequence
from typing import NoReturn

from .ensembles import MoneygasError

# What the messages call an item; the one caller runs replicas.
_ITEM = "replica"


def interleaved(produce: Callable, items: Sequence) -> Iterator:
    """``produce(item)`` for each item, in order.

    A failure in the worker is raised at its item's place: a MoneygasError or
    MemoryError as that type with the same message, any other exception as a
    MoneygasError naming the item and the exception's type. A worker that
    stops early or exits non-zero raises MoneygasError. Closing the stream
    early kills the worker; it is reaped on every path.
    """
    if len(items) < 2 or not hasattr(os, "fork"):
        yield from map(produce, items)
        return
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _work(produce, items[1::2], write_fd)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            for index, item in enumerate(items):
                if index % 2 == 0:
                    yield produce(item)
                    continue
                try:
                    sent, result = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # a short read
                    sent, result = False, None
                if not sent:
                    code, pid = _exit_code(pid), 0
                    raise _failure(result, f"{_ITEM} {index} of {len(items)}", code)
                yield result
                del result  # not held while the next item is produced
        code, pid = _exit_code(pid), 0
        if code != 0:
            raise MoneygasError(f"the {_ITEM} worker failed (exit code {code})")
    finally:
        if pid:  # the stream was closed early, or failed here
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _failure(failure: tuple | None, where: str, code: int) -> Exception:
    """The exception for the worker's failure, or for a short read (None)."""
    if failure is None:
        return MoneygasError(f"the {_ITEM} worker stopped before sending {where} (exit code {code})")
    plain, name, message = failure
    if plain is not None:
        return plain(message)
    return MoneygasError(f"the {_ITEM} worker stopped at {where} with {name}: {message} (exit code {code})")


def _work(produce: Callable, items: Sequence, write_fd: int) -> NoReturn:
    """The forked worker: send each item's result, or the first failure.

    A failure is sent as (MoneygasError or MemoryError, or None for any
    other type; the type's name; the message). The worker leaves through
    ``os._exit``, 0 after the last result and 1 otherwise, so it flushes no
    buffer inherited from the parent (stdout, an open ``.tmp`` file) and runs
    no atexit handler.
    """
    code = 1
    try:
        pipe = open(write_fd, "wb")
        for item in items:
            try:
                frame = True, produce(item)
            except Exception as exc:
                plain = next((cls for cls in (MoneygasError, MemoryError) if isinstance(exc, cls)), None)
                frame = False, (plain, type(exc).__name__, str(exc))
            pickle.dump(frame, pipe)
            pipe.flush()
            if not frame[0]:
                break
            del frame
        else:
            code = 0
    finally:
        os._exit(code)


def _exit_code(pid: int) -> int:
    """Wait for the child ``pid``; its exit code, or minus the signal that ended it."""
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
