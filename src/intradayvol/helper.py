"""The forked helper that the loader, the canonical writer and the bundle
writer share, with the results and errors of one process.

`in_order` hands out (item, work(item)) for each item in order, while a
forked copy of the process works on a share of them. This process keeps a
pipe stocked with item numbers. The helper takes numbers from it in
increasing order and sends back (number, work(item)) for each; while the
answer for the oldest item not yet handed out is not back, this process
takes numbers from the same pipe and works on those items itself. `start`
forks such a helper ahead of its `in_order`, with the first numbers
already in the pipe, so that it works while its parent does something
else: a command that reads input starts the load's helper before it
imports numpy, and `report` starts the helper that writes the bundle's
per-minute files before the fits.

Where /proc tells a thread's CPU and CPU mask, the fork pins the forking
thread to the CPU it runs on and the helper to the other CPUs of the mask:
left to the scheduler, a child that computes without talking to its
parent often runs on the parent's CPU, and the two take turns. Reaping the
helper gives every thread of the process the mask from before again, since
threads started meanwhile inherit the pinned one. (numpy imported
meanwhile starts none: OpenBLAS sizes its pool from the pinned mask.)
"""
from __future__ import annotations

import csv
import os
import pickle
import select
from collections import deque
from contextlib import contextmanager
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import DataError

#: bytes of a helper's answer pipe, where the system lets it be set
_PIPE_BYTES = 1 << 20

#: items held and not yet handed out, at most: while the helper's answer
#: for the oldest is not back, this process takes numbers and works on
#: later items itself while it holds fewer than this many. The pipe is
#: stocked with the numbers up to this many past the oldest.
_AHEAD = 6

#: numbers in the pipe of a helper that `start` forks, unless it is told
#: otherwise. For the load that is 32 blocks of about 100 KB, which a fresh
#: helper parsed at 2-3.5 ms each on a 2-vCPU VM, so it is done about when
#: its parent has imported numpy and the analysis modules (100-150 ms); the
#: answers that do not fit in the answer pipe wait in the helper's memory,
#: about 55 KB each.
_HEAD = 32

#: bytes of an item number in the pipe
_NUMBER_BYTES = 4

#: numbers in one write to the pipe: a write of at most PIPE_BUF bytes is
#: whole or nothing, so no read takes part of a number
_NUMBERS_PER_WRITE = select.PIPE_BUF // _NUMBER_BYTES

_T = TypeVar("_T")


def _read_exact(fd: int, n: int) -> bytearray:
    data = bytearray()
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _receive(fd: int):
    """The next object in the pipe, pickled after its length (see _serve);
    EOFError once the pipe is closed."""
    return pickle.loads(_read_exact(fd, int.from_bytes(_read_exact(fd, 8), "little")))


def _answer_pipe() -> tuple[int, int]:
    """A pipe for a helper's answers, with room for a few of them where
    the system lets it be set: a helper blocked on a full pipe waits for
    its parent instead of working on."""
    read, write = os.pipe()
    try:
        import fcntl  # POSIX, as fork is

        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):
        pass  # not Linux, or over the system's limit: the default size
    return read, write


def _cpu_list(text: str) -> set[int]:
    """The CPUs of a list such as 0-3,8."""
    cpus = set()
    for part in text.split(","):
        first, _, last = part.partition("-")
        cpus.update(range(int(first), int(last or first) + 1))
    return cpus


def _placement() -> tuple[int, set[int]] | None:
    """The CPU this thread runs on and its CPU mask, as /proc gives them;
    None where /proc cannot be read or the mask holds no other CPU."""
    try:
        with open("/proc/thread-self/stat") as fh:
            cpu = int(fh.read().rpartition(")")[2].split()[36])  # field 39, processor
        with open("/proc/thread-self/status") as fh:
            mask = next(_cpu_list(line.split(":", 1)[1].strip()) for line in fh
                        if line.startswith("Cpus_allowed_list:"))
    except (OSError, ValueError, IndexError, StopIteration):
        return None
    return (cpu, mask) if cpu in mask and len(mask) >= 2 else None


def _unpin(mask: set[int] | None) -> None:
    """Give every thread of the process the CPU mask from before a fork
    pinned the forking thread (see _fork); nothing for None."""
    if mask is None:
        return
    try:
        threads = [int(tid) for tid in os.listdir("/proc/self/task")]
    except OSError:
        threads = [0]  # this thread at least
    for tid in threads:
        try:
            os.sched_setaffinity(tid, mask)
        except OSError:
            pass  # the thread has exited


def _fork(child: Callable[[], None], own: tuple[int, ...],
          theirs: tuple[int, ...]) -> tuple[int, set[int] | None]:
    """(pid, mask) of a forked process that closes `own`, this process's
    ends of their pipes, runs child() and exits, with status 0 if it
    returned; this process closes `theirs`, the child's ends. Where the
    fork raises OSError, both are closed.

    Where _placement tells them, the child runs on the other CPUs of this
    thread's mask and this thread on its current CPU; mask is the mask
    from before, for _unpin once the child is reaped, or None."""
    placement = _placement()
    try:
        pid = os.fork()
    except OSError:
        for fd in own + theirs:
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in own:
                os.close(fd)
            if placement is not None:
                cpu, mask = placement
                try:
                    os.sched_setaffinity(0, mask - {cpu})
                except OSError:
                    pass  # the CPU set has changed: the scheduler's choice
            child()
            code = 0
        finally:
            os._exit(code)
    for fd in theirs:
        os.close(fd)
    if placement is None:
        return pid, None
    cpu, mask = placement
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return pid, None
    return pid, mask


def _reap(pid: int, mask: set[int] | None) -> None:
    """Wait for a helper that _fork started, and unpin its parent."""
    try:
        os.waitpid(pid, 0)
    finally:
        _unpin(mask)


def _started(start: Callable[[], _T], fork: Callable[[], bool]) -> _T | None:
    """start(), which forks a helper, where os.fork exists, the process may
    run on two or more CPUs and fork() says the job is big enough; None
    where not, or where fork() or start() raises OSError."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        return None
    try:
        return start() if fork() else None
    except OSError:
        return None  # no process to spare


def _serve(items: Iterable, work: Callable, numbers: int, answers: int) -> None:
    """The helper's loop: take item numbers from the pipe `numbers`, in
    increasing order, and write (number, work(item)) for each to the pipe
    `answers`, pickled after its length. It ends once `numbers` is closed
    and empty, or at a number past the items. The answers that do not fit
    in the pipe wait in this process only while a number waits: every
    answer is written before it waits for a number, or its parent, waiting
    for that answer, would wait on it."""
    os.set_blocking(answers, False)
    room, stocked = select.poll(), select.poll()
    room.register(answers, select.POLLOUT)
    stocked.register(numbers, select.POLLIN)
    items = iter(items)
    taken = 0
    backlog = bytearray()
    while True:
        try:
            data = os.read(numbers, _NUMBER_BYTES)
        except BlockingIOError:  # no number yet
            _write(answers, backlog, room, lambda: False)
            stocked.poll()
            continue
        if not data:
            break
        number = int.from_bytes(data, "little")
        for item in islice(items, number - taken, None):
            break
        else:
            break  # the items end before it
        taken = number + 1
        answer = pickle.dumps((number, work(item)), pickle.HIGHEST_PROTOCOL)
        backlog += len(answer).to_bytes(8, "little") + answer
        _write(answers, backlog, room, lambda: stocked.poll(0))
    _write(answers, backlog, room, lambda: False)


def _write(fd: int, backlog: bytearray, room, stop: Callable[[], bool]) -> None:
    """Write backlog to the non-blocking pipe fd, deleting what is written,
    until it is empty, or until the pipe is full and stop() is true; room
    polls the pipe for room."""
    while backlog:
        try:
            del backlog[:os.write(fd, backlog)]
        except BlockingIOError:
            if stop():
                return
            room.poll()


class _Helper:
    """A forked process that works on a share of its parent's items (see
    _serve), and its parent's ends of the two pipes.

    A forked child shares its parent's memory as it was at the fork, so an
    item travels as its number and only the answers are large. The child
    takes the items from its own copy of `items`, which the parent must
    not have started before the fork. The numbers of the first `head`
    items are in the pipe at the fork. Both processes read that pipe, and
    O_NONBLOCK belongs to the open pipe, which the fork shares, so it is
    set before the fork and each side polls to wait.
    """

    def __init__(self, items: Iterable, work: Callable, head: int):
        self.numbers, self.fill = os.pipe()
        os.set_blocking(self.numbers, False)
        os.set_blocking(self.fill, False)
        self.head, self.stocked = head, 0
        self.stock(head)
        self.answers, answers = _answer_pipe()
        try:
            self.pid, self.mask = _fork(partial(_serve, items, work, self.numbers, answers),
                                        (self.fill, self.answers), (answers,))
        except OSError:
            os.close(self.numbers)
            raise
        self.ready = select.poll()  # an answer, or the helper's exit, to read
        self.ready.register(self.answers, select.POLLIN)

    def stock(self, end: int) -> None:
        """Put the numbers below end that were not yet put in the pipe, as
        far as it has room; the rest waits for the next call."""
        while self.stocked < end:
            last = min(end, self.stocked + _NUMBERS_PER_WRITE)
            try:
                os.write(self.fill, b"".join(k.to_bytes(_NUMBER_BYTES, "little")
                                             for k in range(self.stocked, last)))
            except BlockingIOError:
                return
            self.stocked = last

    def take(self) -> int | None:
        """The next number in the pipe, for this process to work on; None
        if it is empty."""
        try:
            return int.from_bytes(os.read(self.numbers, _NUMBER_BYTES), "little")
        except BlockingIOError:
            return None

    def answer(self) -> tuple | None:
        """The helper's next (number, work(item)), waiting for it; None
        once the helper has exited."""
        try:
            return _receive(self.answers)
        except EOFError:
            return None

    def close(self) -> None:
        """Stop stocking and take the numbers left, so that the helper
        stops after its current item, then reap it; nothing once closed.
        The helper sees the pipe closed and empty, or its next answer
        fail."""
        if self.fill is None:
            return
        os.close(self.fill)
        self.fill = None
        try:
            while os.read(self.numbers, select.PIPE_BUF):
                pass
        except BlockingIOError:
            pass  # the helper has not yet closed its copy of fill
        os.close(self.numbers)
        os.close(self.answers)
        _reap(self.pid, self.mask)


def start(items: Iterable, work: Callable, fork: Callable[[], bool],
          head: int = _HEAD) -> _Helper | None:
    """A helper forked on items where in_order would fork one, with the
    numbers of the first `head` items in its pipe, for an in_order on the
    same items and work to take over, or for its close(); None where none
    is forked."""
    return _started(lambda: _Helper(items, work, head), fork)


@contextmanager
def in_order(items: Iterable, work: Callable, fork: Callable[[], bool],
             helper: _Helper | None = None) -> Iterator[Iterator[tuple]]:
    """An iterator of (item, work(item)) for each of items, in order.

    A helper is forked where os.fork exists, the process may run on two or
    more CPUs and fork() says the job is big enough; where fork() or the
    fork raises OSError, this process works alone. A helper that start
    forked on the same items and work may be passed instead. The pipe is
    kept stocked up to _AHEAD numbers past the oldest item not handed out,
    or to the helper's head if that is further. While the helper's answer
    for the oldest is not back, this process takes numbers from the pipe
    and works on those items itself, holding at most _AHEAD items (and the
    one the helper works on); once the helper has exited, it works on the
    items left. The helper is stopped and reaped on exit. An error reading
    the items (a file that cannot be opened, decoded or has no usable
    header) is raised once the items before it are handed out.
    """
    if helper is None:
        helper = start(items, work, fork, 0)
    try:
        yield _queue(helper, items, work)
    finally:
        if helper is not None:
            helper.close()


def _queue(helper: _Helper | None, items: Iterable, work: Callable) -> Iterator[tuple]:
    """in_order's iterator, with its helper, if any."""
    numbered = enumerate(items)
    held: deque = deque()  # the items not yet handed out, oldest first
    done = {}  # work(item) of held items, by number
    oldest = 0  # the number of held[0]
    failed = None

    def hold(number: int) -> bool:
        """Hold the items up to number; False if they end before it."""
        nonlocal numbered, failed
        while oldest + len(held) <= number:
            if numbered is None:
                return False
            try:
                taken = next(numbered, None)
            except (DataError, OSError, ValueError, csv.Error) as exc:  # raised in its turn
                failed, taken = exc, None
            if taken is None:
                numbered = None
                return False
            held.append(taken[1])
        return True

    while hold(oldest):
        if helper is not None:
            helper.stock(max(helper.head, oldest + _AHEAD))
        while oldest not in done and helper is not None:
            if (len(held) < _AHEAD and not helper.ready.poll(0)
                    and (number := helper.take()) is not None):
                if hold(number):
                    done[number] = work(held[number - oldest])
            elif (answer := helper.answer()) is not None:
                done.update([answer])
            else:  # the helper has exited: this process works on the rest
                helper.close()
                helper = None
        item = held.popleft()
        result = done.pop(oldest) if oldest in done else work(item)
        oldest += 1
        yield item, result
    if failed is not None:
        raise failed
