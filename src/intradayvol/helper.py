"""The forked helper that the loader, the canonical writer and the bundle
writer share: `in_order` hands out (item, work(item)) for each item in
order, while a forked copy of the process may work on a share of them,
with the results and errors of one process."""
from __future__ import annotations

import csv
import os
import pickle
import select
from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import Callable, Iterable, Iterator

from .errors import DataError

#: items a _Helper is asked for ahead of its answers: one to work on and
#: one queued, so that it does not wait between them.
_HELPER_DEPTH = 2

#: bytes of a _Helper's answer pipe, where the system lets it be set
_PIPE_BYTES = 1 << 20

#: items worked on and not yet handed out, at most: while the helper's
#: answer for the oldest is not back, this process works on later items
#: itself.
_AHEAD = 6

_PENDING = object()  # the answer to an item the helper was asked for


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


class _Helper:
    """A forked process that works on a share of its parent's items: asked
    for the item at a position, it sends back work(item).

    Requests and answers are pickled through two pipes. A forked child
    shares its parent's memory as it was at the fork, so a request is just
    a position and only the answers are large. The child takes the items
    from its own copy of `items`, which the parent must not have started
    before the fork. The helper exits when its request pipe closes, when
    the items end, or when it writes an answer that no one will read.
    """

    def __init__(self, items: Iterable, work: Callable):
        requests, self.requests = os.pipe()
        self.answers, answers = os.pipe()
        try:
            import fcntl  # POSIX, as fork is

            # room for a few answers: a helper blocked on a full pipe waits
            # for its parent instead of working on its next request
            fcntl.fcntl(answers, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (AttributeError, OSError):
            pass  # not Linux, or over the system's limit: the default size
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests, self.requests, self.answers, answers):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self.requests)
                os.close(self.answers)
                for answer in _answers(items, work, requests):
                    _send(answers, answer)
                code = 0
            finally:
                os._exit(code)
        os.close(requests)
        os.close(answers)
        self.asked: deque = deque()  # requests not yet answered, oldest first
        self.alive = True
        self.poll = select.poll()
        self.poll.register(self.answers, select.POLLIN)

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
        os.waitpid(self.pid, 0)


@contextmanager
def in_order(items: Iterable, work: Callable,
             fork: Callable[[], bool]) -> Iterator[Iterator[tuple]]:
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
    """
    helper = None
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        try:
            helper = _Helper(items, work) if fork() else None
        except OSError:
            pass  # no process to spare
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
            helper.ask(taken[0])
            queue.append((*taken, _PENDING))
        # the oldest answer, or the helper's exit, not yet readable
        if not queue or (queue[0][2] is _PENDING and len(queue) < _AHEAD
                         and not helper.poll.poll(0)):
            if taken := take():
                queue.append((*taken, work(taken[1])))
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
