"""The forked helpers that the loader, the canonical writer and the bundle
writer share, with the results and errors of one process.

`in_order`, which the loader and the canonical writer call, hands out
(item, work(item)) for each item in order, while a forked copy of the
process works on a share of them. `start` forks such a helper ahead of
its `in_order`, already asked for the first _HEAD items, so that it works
while its parent does something else: a command that reads input starts
the load's helper before it imports numpy. `in_any_order`, which the
bundle writer calls, starts a forked copy on the items at once and lets
the caller run other work before it joins in; the results come back in
item order.

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
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import DataError

#: items a _Helper is asked for ahead of its answers: one to work on and
#: one queued, so that it does not wait between them.
_HELPER_DEPTH = 2

#: bytes of a helper's answer pipe, where the system lets it be set
_PIPE_BYTES = 1 << 20

#: items worked on and not yet handed out, at most: while the helper's
#: answer for the oldest is not back, this process works on later items
#: itself.
_AHEAD = 6

#: items a helper that `start` forks is asked for at once. For the load
#: that is 32 blocks of about 100 KB, which a fresh helper parsed at
#: 2-3.5 ms each on a 2-vCPU VM, so it is done about when its parent has
#: imported numpy and the analysis modules (100-150 ms); the answers that
#: do not fit in the pipe wait in the helper's memory, about 55 KB each.
_HEAD = 32

#: bytes of an item number in in_any_order's pipe
_NUMBER_BYTES = 4

_PENDING = object()  # the answer to an item the helper was asked for

_T = TypeVar("_T")


def _read_exact(fd: int, n: int) -> bytearray:
    data = bytearray()
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _send(fd: int, obj) -> None:
    """Write obj to a pipe, pickled after its length."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int):
    """The next object _send wrote to the pipe; EOFError once it is closed."""
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


def _answers(items: Iterable, work: Callable, fd: int) -> Iterator:
    """work(item) of the item at each position _send writes to the pipe,
    the positions increasing; it ends where the pipe or the items do."""
    items = iter(items)
    taken = 0
    while True:
        try:
            position = _receive(fd)
        except EOFError:
            return
        for item in islice(items, position - taken, None):
            break
        else:
            return  # the items end before it: the parent works on it itself
        taken = position + 1
        yield work(item)


def _deliver(answers: Iterator, fd: int, requests: int) -> None:
    """Write each of answers to the pipe fd as _send does, without waiting
    for room in the pipe while a request waits in the pipe `requests`: the
    answers that do not fit wait in this process, which works on."""
    os.set_blocking(fd, False)
    room = select.poll()
    room.register(fd, select.POLLOUT)
    waiting = select.poll()
    waiting.register(requests, select.POLLIN)
    backlog = bytearray()
    for answer in answers:
        data = pickle.dumps(answer, pickle.HIGHEST_PROTOCOL)
        backlog += len(data).to_bytes(8, "little") + data
        _write(fd, backlog, room, lambda: waiting.poll(0))
    _write(fd, backlog, room, lambda: False)


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
    """A forked process that works on a share of its parent's items: asked
    for the item at a position, it sends back work(item).

    Requests and answers are pickled through two pipes. A forked child
    shares its parent's memory as it was at the fork, so a request is just
    a position and only the answers are large. The child takes the items
    from its own copy of `items`, which the parent must not have started
    before the fork. It is asked for the first `head` positions at once,
    and while it has a request to work on, the answers that do not fit in
    the pipe wait in its memory. The helper exits when its request pipe
    closes, when the items end, or when it writes an answer that no one
    will read.
    """

    def __init__(self, items: Iterable, work: Callable, head: int = 0):
        requests, self.requests = os.pipe()
        self.answers, answers = _answer_pipe()

        def serve() -> None:
            _deliver(_answers(items, work, requests), answers, requests)

        self.pid, self.mask = _fork(serve, (self.requests, self.answers),
                                    (requests, answers))
        self.asked: deque = deque()  # requests not yet answered, oldest first
        self.alive = True
        self.head = head
        self.poll = select.poll()
        self.poll.register(self.answers, select.POLLIN)
        for position in range(head):
            self.ask(position)

    def ask(self, request) -> None:
        try:
            _send(self.requests, request)
            self.asked.append(request)
        except BrokenPipeError:  # the helper has exited
            self.alive = False

    def answer(self, request):
        """The answer to request, dropping the answers to those asked for
        before it; _PENDING if the helper has exited."""
        while self.asked:
            asked = self.asked.popleft()
            try:
                answer = _receive(self.answers)
            except EOFError:
                self.alive = False
                break
            if asked == request:
                return answer
        return _PENDING

    def stop(self) -> None:
        """Ask for nothing more: the helper exits after its last answer."""
        if self.requests is not None:
            os.close(self.requests)
            self.requests = None

    def close(self) -> None:
        """Stop and reap the helper: it sees its request pipe close, or
        its next answer fail."""
        self.stop()
        os.close(self.answers)
        _reap(self.pid, self.mask)


def start(items: Iterable, work: Callable, fork: Callable[[], bool]) -> _Helper | None:
    """A helper forked on items where in_order would fork one, already
    asked for the items at the first _HEAD positions, for an in_order on
    the same items and work to take over, or for its close(); None where
    none is forked."""
    return _started(lambda: _Helper(items, work, _HEAD), fork)


@contextmanager
def in_order(items: Iterable, work: Callable, fork: Callable[[], bool],
             helper: _Helper | None = None) -> Iterator[Iterator[tuple]]:
    """An iterator of (item, work(item)) for each of items, in order.

    A helper is forked where os.fork exists, the process may run on two or
    more CPUs and fork() says the job is big enough; where fork() or the
    fork raises OSError, this process works alone. The helper is kept
    asked for the items at the next _HELPER_DEPTH positions, and while its
    answer for the oldest is not back this process works on later items
    itself, up to _AHEAD items in all, and on those of a helper that has
    exited; it is stopped and reaped on exit. An error reading the items
    (a file that cannot be opened, decoded or has no usable header) is
    raised once the items before it are handed out.

    A helper that start forked on the same items and work may be passed
    instead: this process never works on the positions it was asked for
    at its start, and from there on shares the items as above.
    """
    if helper is None:
        helper = _started(lambda: _Helper(items, work), fork)
    try:
        yield _queue(helper, items, work)
    finally:
        if helper is not None:
            helper.close()


def _queue(helper: _Helper | None, items: Iterable, work: Callable) -> Iterator[tuple]:
    """in_order's iterator, with its helper, if any."""
    numbered = enumerate(items)
    queue: deque[tuple] = deque()  # (position, item, work(item) or _PENDING), oldest first
    failed = None

    def take() -> tuple | None:
        """The next (position, item); None after the last, or an error."""
        nonlocal failed
        try:
            taken = next(numbered, None)
        except (DataError, OSError, ValueError, csv.Error) as exc:  # raised in its turn
            failed, taken = exc, None
        if taken is None and helper is not None:
            helper.stop()  # so that it exits while the last items are handed out
        return taken

    while True:
        while (helper is not None and helper.alive and len(helper.asked) < _HELPER_DEPTH
               and (taken := take())):
            if taken[0] >= helper.head:  # not asked at its start
                helper.ask(taken[0])
            queue.append((*taken, _PENDING))
        # the oldest answer, or the helper's exit, not yet readable
        if not queue or (queue[0][2] is _PENDING and len(queue) < _AHEAD
                         and not helper.poll.poll(0)):
            if taken := take():
                asked = helper is not None and helper.alive and taken[0] < helper.head
                queue.append((*taken, _PENDING if asked else work(taken[1])))
                continue
            if not queue:
                if failed is not None:
                    raise failed
                return
        position, item, result = queue.popleft()
        if result is _PENDING:
            result = helper.answer(position)
        if result is _PENDING:  # the helper has exited
            result = work(item)
        yield item, result


def _take(fd: int) -> int | None:
    """The next item number in in_any_order's pipe; None once it is empty.
    Every number is in the pipe before anyone reads it, and each read takes
    one whole number, so a read never returns part of one."""
    data = os.read(fd, _NUMBER_BYTES)
    return int.from_bytes(data, "little") if data else None


class _Taker:
    """A forked process that takes item numbers from in_any_order's pipe
    until it is empty, and sends back (number, work(item)) for each. It
    exits when the pipe is empty, or when it writes an answer that no one
    will read."""

    def __init__(self, items: Sequence, work: Callable, numbers: int):
        self.answers, answers = _answer_pipe()

        def serve() -> None:
            while (number := _take(numbers)) is not None:
                _send(answers, (number, work(items[number])))

        self.pid, self.mask = _fork(serve, (self.answers,), (answers,))

    def answer(self) -> tuple | None:
        """The helper's next (number, work(item)); None once it has exited."""
        try:
            return _receive(self.answers)
        except EOFError:
            return None

    def close(self) -> None:
        """Reap the helper: it has taken its last number, or its next
        answer fails."""
        os.close(self.answers)
        _reap(self.pid, self.mask)


@contextmanager
def in_any_order(items: Sequence, work: Callable,
                 fork: Callable[[], bool]) -> Iterator[Callable[[], list]]:
    """Start work on items in a forked helper, and yield finish(), which
    returns [work(item) for item in items] in item order.

    Each item's number is written to a pipe before the fork, and the helper
    takes the next one while the block runs, until the pipe is empty.
    finish() takes the numbers left in this process, so that the two end
    together, then gathers the helper's answers, does again any item the
    helper took and did not answer (it died), and reaps the helper. The
    helper is forked where in_order's would be; otherwise, or when the fork
    fails, finish() does every item. If the block raises before finish(),
    the numbers left are dropped, so that the helper stops after its
    current item, and the helper is reaped.
    """
    numbers, fill = os.pipe()
    # A pipe holds at least PIPE_BUF bytes, so a write of that many returns
    # at once: 1,024 numbers on Linux. The bundle writer's items are its
    # per-minute files, 39 for 16 semesters, so even 100 semesters need less
    # than 1 KB. Beyond that no helper is forked.
    prefilled = len(items) * _NUMBER_BYTES <= select.PIPE_BUF
    try:
        if prefilled:
            os.write(fill, b"".join(k.to_bytes(_NUMBER_BYTES, "little")
                                    for k in range(len(items))))
    finally:
        os.close(fill)
    helper = None

    def finish() -> list:
        nonlocal helper
        done = {}
        while (number := _take(numbers)) is not None:
            done[number] = work(items[number])
        if helper is not None:
            while (answer := helper.answer()) is not None:
                done.update([answer])
            helper.close()
            helper = None
        return [done[k] if k in done else work(item) for k, item in enumerate(items)]

    try:
        if prefilled:
            helper = _started(lambda: _Taker(items, work, numbers), fork)
        yield finish
    finally:
        while os.read(numbers, select.PIPE_BUF):  # numbers left if the block raised
            pass
        os.close(numbers)
        if helper is not None:
            helper.close()
