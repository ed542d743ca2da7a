"""The in-order queue with its forked helper (intradayvol.helper).

The autouse no_child_process_left fixture checks after each test that
every helper was reaped.
"""
from __future__ import annotations

import errno
import os
import signal
from contextlib import nullcontext
from unittest import mock

import pytest

from conftest import counting_answers, needs_helper, one_cpu
from intradayvol import helper as helper_mod
from intradayvol import panel as panel_mod
from intradayvol.errors import DataError
from intradayvol.helper import in_order
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
