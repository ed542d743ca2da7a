"""The in-order queue and the any-order start with their forked helpers
(intradayvol.helper).

The autouse no_child_process_left fixture checks after each test that
every helper was reaped.
"""
from __future__ import annotations

import errno
import os
import signal
import select
import time
from contextlib import nullcontext
from unittest import mock

import pytest

from conftest import counting_answers, needs_helper, one_cpu, started_takers
from intradayvol import helper as helper_mod
from intradayvol import panel as panel_mod
from intradayvol.errors import DataError
from intradayvol.helper import in_any_order, in_order
from intradayvol.panel import write_panel_csv
from intradayvol.synth import GeneratorSpec, IntensitySpec, generate_panel

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
helper_or_not = pytest.mark.parametrize(
    "helper", [False, pytest.param(True, marks=needs_helper)])


def _handed_out(items, fork=lambda: True) -> list[tuple]:
    with in_order(items, str, fork) as results:
        return list(results)


def _two_cpus():
    """Patch the process's CPU set to two CPUs, so that in_order tries to
    fork a helper even where the process runs on one."""
    return mock.patch.object(os, "sched_getaffinity", return_value={0, 1}, create=True)


def _no_fork():
    return mock.patch.object(helper_mod._Helper, "__init__",
                             side_effect=AssertionError("forked"))


def _finished(items, fork=lambda: True) -> list:
    with in_any_order(list(items), str, fork) as finish:
        return finish()


def _no_taker():
    return mock.patch.object(helper_mod._Taker, "__init__",
                             side_effect=AssertionError("forked"))


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
    def test_every_item_in_order(self, helper):
        answered = []
        with (nullcontext() if helper else one_cpu()), counting_answers(answered):
            got = _handed_out(range(200))
        assert got == [(k, str(k)) for k in range(200)]
        # the parent waits for the helper's first answer once _AHEAD
        # items are queued, if not before
        assert answered[:1] == [True] * helper

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
def test_helper_gone_before_the_next_request(tmp_path):
    # the helper is killed, and has exited, before the third request: that
    # request's write breaks the pipe, and the writer does the rest itself
    real_ask = helper_mod._Helper.ask
    alive = []

    def ask(helper, request):
        if len(alive) == 2:
            os.kill(helper.pid, signal.SIGKILL)
            os.waitid(os.P_PID, helper.pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped
        real_ask(helper, request)
        alive.append(helper.alive)

    want = _panel_csv_bytes(tmp_path, one_cpu())
    assert _panel_csv_bytes(tmp_path, mock.patch.object(helper_mod._Helper, "ask", ask)) \
        == want
    assert alive == [True, True, False]


class _Logged:
    """A work function that appends "pid item" to a file for each item,
    from whichever process works on it, after `delay` seconds."""

    def __init__(self, path, delay: float = 0.0):
        self.path, self.delay = path, delay

    def __call__(self, item):
        time.sleep(self.delay)
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
    @helper_or_not
    def test_every_item_once_and_the_results_in_order(self, tmp_path, helper):
        work = _Logged(tmp_path / "log", delay=0.001)
        answered, pids = [], []
        with (nullcontext() if helper else one_cpu()), counting_answers(answered), \
                started_takers(pids):
            with in_any_order(list(range(200)), work, lambda: True) as finish:
                time.sleep(0.05)  # the helper works meanwhile
                got = finish()
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
        with counting_answers(answered), started_takers(pids):
            with in_any_order(list(range(50)), work, lambda: True) as finish:
                time.sleep(0.05)  # the helper takes items 0-5 meanwhile
                got = finish()
        assert got == [str(k) for k in range(50)]
        assert answered == [True] * 5 + [False]
        done = logged.done()
        assert done[:5] == [(pids[0], k) for k in range(5)]
        assert sorted(item for _, item in done) == list(range(50))
        assert (parent, 5) in done

    def test_one_cpu_forks_no_helper(self):
        with one_cpu(), _no_taker():
            assert _finished(range(20)) == [str(k) for k in range(20)]

    def test_small_job_forks_no_helper(self):
        with _two_cpus(), _no_taker():
            assert _finished(range(20), fork=lambda: False) == [str(k) for k in range(20)]

    def test_items_past_the_pipe_forks_no_helper(self):
        # their numbers would not all fit in the pipe before the fork
        items = range(select.PIPE_BUF // helper_mod._NUMBER_BYTES + 1)
        with _two_cpus(), _no_taker():
            assert _finished(items) == list(map(str, items))

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
        work = _Logged(tmp_path / "log", delay=0.02)
        pids = []
        with (nullcontext() if helper else one_cpu()), started_takers(pids), \
                pytest.raises(OSError, match="disk full"):
            with in_any_order(list(range(100)), work, lambda: True):
                time.sleep(0.05)
                raise OSError(errno.ENOSPC, "disk full")
        done = work.done()
        # the helper finished the item it held and took no more
        assert {pid for pid, _ in done} <= set(pids) and len(pids) == helper
        assert len(done) < 10 and [item for _, item in done] == list(range(len(done)))
