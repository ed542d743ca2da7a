"""The in-order queue and the started helper that it takes over
(intradayvol.helper).

The autouse no_child_process_left fixture checks after each test that
every helper was reaped.
"""
from __future__ import annotations

import errno
import os
import signal
import time
from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest

from conftest import counting_answers, needs_helper, one_cpu, started_helpers
from intradayvol import helper as helper_mod
from intradayvol import panel as panel_mod
from intradayvol.errors import DataError
from intradayvol.helper import in_order, start
from intradayvol.panel import write_panel_csv
from intradayvol.synth import GeneratorSpec, IntensitySpec, generate_panel

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
helper_or_not = pytest.mark.parametrize(
    "helper", [False, pytest.param(True, marks=needs_helper)])


def _handed_out(items, work=str, fork=lambda: True) -> list[tuple]:
    with in_order(items, work, fork) as results:
        return list(results)


def _two_cpus():
    """Patch the process's CPU set to two CPUs, so that in_order tries to
    fork a helper even where the process runs on one."""
    return mock.patch.object(os, "sched_getaffinity", return_value={0, 1}, create=True)


def _no_fork():
    return mock.patch.object(helper_mod._Helper, "__init__",
                             side_effect=AssertionError("forked"))


def _finished(items, work=str, fork=lambda: True, pause: float = 0.0) -> list:
    """work(item) of each item, from a helper started with every number
    in its pipe, as the bundle writer starts it, and taken over by
    in_order after `pause` seconds."""
    helper = start(items, work, fork, len(items))
    time.sleep(pause)  # the helper works meanwhile
    with in_order(items, work, lambda: False, helper) as results:
        return [result for _, result in results]


def _panel_csv_bytes(tmp_path, patches) -> bytes:
    """The canonical CSV of a 2-company, 6-day panel written in 100-row
    chunks, with the writer's size gate open, under the given patches."""
    spec = GeneratorSpec(n_companies=2, n_days=6, seed=5, price_model="gbm",
                         intensity=IntensitySpec(opening_amplitude=2000.0,
                                                 opening_exponent=0.29))
    path = tmp_path / "panel.csv"
    with mock.patch.object(panel_mod, "_WRITE_ROWS", 100), \
            mock.patch.object(panel_mod, "_WRITER_MIN_ROWS", 0), patches:
        write_panel_csv(generate_panel(spec)[0], path)
    return path.read_bytes()


class TestInOrder:
    @helper_or_not
    def test_every_item_in_order(self, helper, tmp_path):
        # the parent, slowed, leaves the helper a share even on a busy machine
        work = _Logged(tmp_path / "log", parent_delay=0.001)
        answered, pids = [], []
        with (nullcontext() if helper else one_cpu()), counting_answers(answered), \
                started_helpers(pids):
            got = _handed_out(range(200), work)
        assert got == [(k, str(k)) for k in range(200)]
        assert sorted(item for _, item in work.done()) == list(range(200))
        assert len(pids) == helper and any(answered) == helper

    def test_one_cpu_forks_no_helper(self):
        with one_cpu(), _no_fork():
            assert _handed_out(range(20)) == [(k, str(k)) for k in range(20)]

    @needs_helper
    def test_started_helper_taken_over(self):
        # once its head start is answered, the helper is asked for later
        # positions only: a position it was asked for at its start and
        # asked for again would end it with an error
        items = range(3 * helper_mod._HEAD)
        statuses = []
        real_waitpid = os.waitpid

        def waitpid(pid, options):
            reaped = real_waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        answered = []
        with mock.patch.object(os, "waitpid", waitpid), counting_answers(answered):
            helper = helper_mod.start(items, str, lambda: True)
            time.sleep(0.2)  # every head answer ready: the parent never waits
            with in_order(items, str, lambda: False, helper) as results:
                got = list(results)
        assert got == [(k, str(k)) for k in items]
        assert answered[:helper_mod._HEAD] == [True] * helper_mod._HEAD
        assert statuses == [0]  # it served every request and exited cleanly

    def test_small_job_forks_no_helper(self):
        with _two_cpus(), _no_fork():
            assert _handed_out(range(20), fork=lambda: False) == \
                [(k, str(k)) for k in range(20)]

    def test_unreadable_job_size_forks_no_helper(self):
        def size():
            raise FileNotFoundError(errno.ENOENT, "No such file or directory")

        with _two_cpus(), _no_fork():
            assert _handed_out(range(20), fork=size) == [(k, str(k)) for k in range(20)]

    @helper_or_not
    def test_read_error_after_the_items_before_it(self, helper):
        def items():
            yield from range(5)
            raise DataError("file 6 unreadable")

        got = []
        with (nullcontext() if helper else one_cpu()), \
                pytest.raises(DataError, match="file 6 unreadable"), \
                in_order(items(), str, lambda: True) as results:
            for pair in results:
                got.append(pair)
        assert got == [(k, str(k)) for k in range(5)]

    @helper_or_not
    def test_helper_reaped_when_the_caller_stops_early(self, helper):
        with (nullcontext() if helper else one_cpu()):
            with in_order(range(1000), str, lambda: True) as results:
                for item, _ in results:
                    if item == 10:
                        break
            with pytest.raises(OSError, match="disk full"):
                with in_order(range(1000), str, lambda: True) as results:
                    for item, _ in results:
                        if item == 10:
                            raise OSError(errno.ENOSPC, "disk full")


@needs_fork
class TestFailedFork:
    """os.fork raising OSError: no process to spare."""

    def test_pipes_closed_and_items_done_alone(self):
        made, closed = [], []
        real_pipe, real_close = os.pipe, os.close

        def pipe():
            fds = real_pipe()
            made.extend(fds)
            return fds

        def close(fd):
            closed.append(fd)
            real_close(fd)

        with _two_cpus(), mock.patch.object(os, "pipe", pipe), \
                mock.patch.object(os, "close", close), \
                mock.patch.object(os, "fork", side_effect=OSError(errno.EAGAIN, "no process")):
            got = _handed_out(range(20))
        assert got == [(k, str(k)) for k in range(20)]
        assert len(made) == 4 and sorted(closed) == sorted(made)

    def test_writer_falls_back_to_one_process(self, tmp_path):
        want = _panel_csv_bytes(tmp_path, one_cpu())
        failed = mock.patch.object(os, "fork", side_effect=OSError(errno.EAGAIN, "no process"))
        with _two_cpus():
            assert _panel_csv_bytes(tmp_path, failed) == want


@needs_helper
@pytest.mark.skipif(not hasattr(os, "waitid"), reason="no os.waitid")
def test_helper_gone_while_the_pipe_is_stocked(tmp_path):
    # the helper is killed, and has exited, before the pipe is stocked the
    # third time: the numbers go into a pipe that only this process reads,
    # and the writer does the rest itself once it reads the helper's exit
    real_stock = helper_mod._Helper.stock
    stocked = []

    def stock(helper, end):
        if len(stocked) == 2:
            os.kill(helper.pid, signal.SIGKILL)
            os.waitid(os.P_PID, helper.pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped
        real_stock(helper, end)
        stocked.append(end)

    @contextmanager
    def patches():
        with mock.patch.object(helper_mod._Helper, "stock", stock), \
                counting_answers(answered):
            yield

    answered = []
    want = _panel_csv_bytes(tmp_path, one_cpu())
    assert _panel_csv_bytes(tmp_path, patches()) == want
    assert len(stocked) >= 3 and answered[-1:] == [False]


class _Logged:
    """A work function that appends "pid item" to a file for each item,
    from whichever process works on it, after `delay` seconds, or
    `parent_delay` seconds in the process that made it."""

    def __init__(self, path, delay: float = 0.0, parent_delay: float | None = None):
        self.path, self.parent = path, os.getpid()
        self.delay = delay
        self.parent_delay = delay if parent_delay is None else parent_delay

    def __call__(self, item):
        time.sleep(self.parent_delay if os.getpid() == self.parent else self.delay)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {item}\n".encode())
        finally:
            os.close(fd)
        return str(item)

    def done(self) -> list[tuple[int, int]]:
        """(pid, item) of each item worked on, in the order they were."""
        if not self.path.exists():
            return []
        return [tuple(map(int, line.split())) for line in self.path.read_text().splitlines()]


class TestInAnyOrder:
    """A helper started with every item's number in its pipe, as the
    bundle writer starts it, works on items while its parent does other
    work; in_order then gathers the results in order."""

    @helper_or_not
    def test_every_item_once_and_the_results_in_order(self, tmp_path, helper):
        work = _Logged(tmp_path / "log", delay=0.001)
        answered, pids = [], []
        with (nullcontext() if helper else one_cpu()), counting_answers(answered), \
                started_helpers(pids):
            got = _finished(range(200), work, pause=0.05)
        assert got == [str(k) for k in range(200)]
        done = work.done()
        assert sorted(item for _, item in done) == list(range(200))
        assert {pid for pid, _ in done} == {os.getpid(), *pids}
        assert len(pids) == helper and any(answered) == helper

    @needs_helper
    def test_items_the_helper_took_and_did_not_answer_are_done_again(self, tmp_path):
        parent = os.getpid()

        def work(item):
            if os.getpid() != parent and item == 5:
                os.kill(os.getpid(), signal.SIGKILL)
            return logged(item)

        logged = _Logged(tmp_path / "log")
        answered, pids = [], []
        with counting_answers(answered), started_helpers(pids):
            # the helper takes items 0-5 in the pause
            got = _finished(range(50), work, pause=0.05)
        assert got == [str(k) for k in range(50)]
        assert answered == [True] * 5 + [False]
        done = logged.done()
        assert done[:5] == [(pids[0], k) for k in range(5)]
        assert sorted(item for _, item in done) == list(range(50))
        assert (parent, 5) in done

    def test_one_cpu_forks_no_helper(self):
        with one_cpu(), _no_fork():
            assert _finished(range(20)) == [str(k) for k in range(20)]

    def test_small_job_forks_no_helper(self):
        with _two_cpus(), _no_fork():
            assert _finished(range(20), fork=lambda: False) == [str(k) for k in range(20)]

    @needs_helper
    def test_every_number_in_the_pipe_at_the_start(self, tmp_path):
        # more numbers than one write to the pipe holds: the rest are
        # stocked as the pipe empties
        items = range(3000)
        work = _Logged(tmp_path / "log")
        pids = []
        with started_helpers(pids):
            got = _finished(items, work, pause=0.05)
        assert got == list(map(str, items))
        done = work.done()
        assert len(pids) == 1 and {pid for pid, _ in done} == {os.getpid(), *pids}
        assert sorted(item for _, item in done) == list(items)

    @needs_helper
    def test_answers_that_overflow_the_pipe(self):
        # 40 answers of 100 KB, all worked on in the pause, overflow the
        # answer pipe: those that do not fit wait in the helper until the
        # parent reads them
        items = range(40)
        pids = []

        def work(item):
            return bytes([item]) * 100_000

        signal.signal(signal.SIGALRM,
                      lambda *_: pytest.fail("the two processes wait on each other"))
        signal.alarm(60)
        try:
            with started_helpers(pids):
                got = _finished(items, work, pause=0.2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        assert len(pids) == 1 and got == [work(k) for k in items]

    @needs_fork
    def test_failed_fork_closes_its_pipes(self):
        made, closed = [], []
        real_pipe, real_close = os.pipe, os.close

        def pipe():
            fds = real_pipe()
            made.extend(fds)
            return fds

        def close(fd):
            closed.append(fd)
            real_close(fd)

        with _two_cpus(), mock.patch.object(os, "pipe", pipe), \
                mock.patch.object(os, "close", close), \
                mock.patch.object(os, "fork", side_effect=OSError(errno.EAGAIN, "no process")):
            assert _finished(range(20)) == [str(k) for k in range(20)]
        assert len(made) == 4 and sorted(closed) == sorted(made)

    @helper_or_not
    def test_error_before_finish_stops_the_helper(self, tmp_path, helper):
        items = range(100)
        work = _Logged(tmp_path / "log", delay=0.02)
        pids = []
        with (nullcontext() if helper else one_cpu()), started_helpers(pids), \
                pytest.raises(OSError, match="disk full"):
            started = start(items, work, lambda: True, len(items))
            with in_order(items, work, lambda: False, started):
                time.sleep(0.05)
                raise OSError(errno.ENOSPC, "disk full")
        if started is not None:
            started.close()  # closed already: nothing to do
        done = work.done()
        # the helper finished the item it held and took no more
        assert {pid for pid, _ in done} <= set(pids) and len(pids) == helper
        assert len(done) < 10 and [item for _, item in done] == list(range(len(done)))


@needs_helper
def test_slow_helper_leaves_the_parent_most_items(tmp_path):
    # a started helper that cannot keep up (here, 20 ms an item) holds up
    # only the items it took, not the first _HEAD: the parent takes the
    # numbers after them
    items = range(64)
    work = _Logged(tmp_path / "log", delay=0.02, parent_delay=0.0)
    with in_order(items, work, lambda: False, start(items, work, lambda: True)) as results:
        assert list(results) == [(k, str(k)) for k in items]
    done = work.done()
    assert sorted(item for _, item in done) == list(range(64))
    assert sum(pid == os.getpid() for pid, _ in done) > 32
