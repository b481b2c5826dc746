"""Two cores for independent jobs: one forked worker produces every other item.

``interleaved`` yields ``produce(item)`` for every item, in order. With two
items or more, where ``os.fork`` exists, it forks one worker at the first
item. The worker produces the odd items and sends each result through a pipe,
while the calling process produces the even ones. Each result must be a
pure function of its item, so that the results are the same as from one
process.
``runner`` uses it for the replicas of ``simulate``.

A frame is an 8-byte little-endian size, a tag byte and the payload: the
pickled result, or the worker's failure. No received result is held here
once it has been yielded.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Callable, Iterator, Sequence
from typing import NoReturn

from .ensembles import MoneygasError

_PICKLED, _FAILED = b"p", b"f"
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
                tag, payload = _received(pipe)
                if tag != _PICKLED:
                    code, pid = _exit_code(pid), 0
                    raise _failure(payload, f"{_ITEM} {index} of {len(items)}", code)
                result = pickle.loads(payload)
                del payload
                yield result
                del result  # not held while the next item is produced
        code, pid = _exit_code(pid), 0
        if code != 0:
            raise MoneygasError(f"the {_ITEM} worker failed (exit code {code})")
    finally:
        if pid:  # the stream was closed early, or failed here
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _failure(payload: bytes | None, where: str, code: int) -> Exception:
    """The exception for a failure frame, or for a short read (no payload)."""
    if payload is None:
        return MoneygasError(f"the {_ITEM} worker stopped before sending {where} (exit code {code})")
    plain, name, message = pickle.loads(payload)
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
        for item in items:
            try:
                result = produce(item)
            except Exception as exc:
                plain = next((cls for cls in (MoneygasError, MemoryError) if isinstance(exc, cls)), None)
                _send(write_fd, _FAILED, pickle.dumps((plain, type(exc).__name__, str(exc))))
                break
            _send(write_fd, _PICKLED, pickle.dumps(result))
            del result
        else:
            code = 0
    finally:
        os._exit(code)


def _send(fd: int, tag: bytes, payload: bytes) -> None:
    for data in (len(payload).to_bytes(8, "little") + tag, payload):
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]


def _received(pipe) -> tuple[bytes | None, bytes | None]:
    """One frame from the worker as (tag, payload); (None, None) after a short read."""
    header = pipe.read(9)
    if len(header) == 9:
        size = int.from_bytes(header[:8], "little")
        payload = pipe.read(size)
        if len(payload) == size:
            return header[8:], payload
    return None, None


def _exit_code(pid: int) -> int:
    """Wait for the child ``pid``; its exit code, or minus the signal that ended it."""
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
