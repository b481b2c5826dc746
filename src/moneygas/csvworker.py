"""samples.csv on two cores: a forked worker formats every other block.

``interleaved_chunks`` forks one worker at its first chunk. The worker
formats the odd blocks with the same ``csv_bytes`` and sends each one through
a pipe, length-prefixed, while the calling process formats the even ones and
yields every block in file order, so the bytes are the same as from one
process. No received block is held here once it has been yielded.
"""

from __future__ import annotations

import os
import signal
from collections.abc import Iterator
from typing import NoReturn

from .ensembles import MoneygasError


def interleaved_chunks(samples, starts: range, block: int) -> Iterator[bytes]:
    """``samples.csv_bytes(start, start + block)`` for each start, in order.

    A worker that stops early or exits non-zero raises MoneygasError.
    Closing the stream early kills the worker; it is reaped on every path.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _format_in_worker(samples, starts[1::2], block, read_fd, write_fd)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            for index, start in enumerate(starts):
                if index % 2 == 0:
                    yield samples.csv_bytes(start, start + block)
                elif (chunk := _received(pipe)) is not None:
                    yield chunk
                    del chunk  # not held while the next block is formatted
                else:
                    code, pid = _exit_code(pid), 0
                    raise MoneygasError(f"the samples.csv worker stopped before sending block"
                                        f" {index} of {len(starts)} (exit code {code})")
        code, pid = _exit_code(pid), 0
        if code != 0:
            raise MoneygasError(f"the samples.csv worker failed (exit code {code})")
    finally:
        if pid:  # the stream was closed early, or failed here
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _format_in_worker(samples, starts: range, block: int, read_fd: int, write_fd: int) -> NoReturn:
    """The forked worker: send ``csv_bytes`` of each start, length-prefixed.

    It leaves through ``os._exit``, so it flushes no buffer inherited from
    the parent (stdout, the open ``.tmp`` file) and runs no atexit handler;
    any exception exits 1.
    """
    code = 1
    try:
        os.close(read_fd)
        for start in starts:
            chunk = samples.csv_bytes(start, start + block)
            _send(write_fd, len(chunk).to_bytes(8, "little"))
            _send(write_fd, chunk)
        code = 0
    finally:
        os._exit(code)


def _send(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _received(pipe) -> bytes | None:
    """One length-prefixed block from the worker; None after a short read."""
    header = pipe.read(8)
    if len(header) == 8:
        size = int.from_bytes(header, "little")
        chunk = pipe.read(size)
        if len(chunk) == size:
            return chunk
    return None


def _exit_code(pid: int) -> int:
    """Wait for the child ``pid``; its exit code, or minus the signal that ended it."""
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
