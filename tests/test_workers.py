"""The frame-block loops on one and on two workers.

The simulator and the receive chain split their blocks into one contiguous
range per worker, and the simulator draws each 16-frame noise block from its
own stream. These tests hold the results to the same bytes whatever the
worker count and block size, and check that a failure on either thread
reaches the caller with no thread left behind.
"""
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from jcvitals import channel
from jcvitals.channel import _CHUNK_FRAMES, Scene, simulate_capture
from jcvitals.ranging import range_profiles, to_range_profiles
from jcvitals.receiver import estimate_channel
from jcvitals.waveform import select_subcarriers

from conftest import bin_series, make_target


def run_chain(spec, symbol, n_frames, dtype=np.complex64, sweep=False):
    """The frames, transfer, range power and peak bin series of frames of
    ``dtype`` (complex64 as simulated, read and averaged; complex128 as a
    library caller may pass them); with ``sweep``,
    also the range power of two narrower nested bands from the same pass."""
    scene = Scene(targets=[make_target(duration_s=2.0)], snr_db=10.0)
    capture = simulate_capture(scene, symbol, spec, n_frames=n_frames, rng_seed=7)
    capture = replace(capture, frames=capture.frames.astype(dtype, copy=False))
    series = estimate_channel(capture, symbol)
    counts = [spec.active_count] + ([spec.active_count // 2, 7] if sweep else [])
    bands = range_profiles(series, [select_subcarriers(spec, count) for count in counts])
    at_peak = bin_series(series, int(bands[0].mean_power.argmax()))
    return (capture.frames, series.transfer, *(band.mean_power for band in bands), at_peak)


def fft_threads(monkeypatch) -> set:
    """Patch the forward and inverse FFTs to record the threads that call them."""
    threads = set()
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def recording(*args, _original=original, **kwargs):
            threads.add(threading.current_thread())
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, recording)
    return threads


# 4 * _CHUNK_FRAMES + 1 gives each of two workers more than one block, so a
# power sum taken per worker and then added would round differently
@pytest.mark.parametrize("n_frames", [1, _CHUNK_FRAMES - 1, _CHUNK_FRAMES, _CHUNK_FRAMES + 1,
                                      2 * _CHUNK_FRAMES + 1, 4 * _CHUNK_FRAMES + 1])
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128], ids=["complex64", "complex128"])
@pytest.mark.parametrize("sweep", [False, True], ids=["one-band", "sweep"])
def test_worker_count_does_not_change_the_bytes(small_spec, small_symbol, monkeypatch, n_frames,
                                                dtype, sweep):
    results = {}
    for workers in (1, 2):
        monkeypatch.setattr(channel, "_WORKERS", workers)
        results[workers] = run_chain(small_spec, small_symbol, n_frames, dtype, sweep)
    assert len(results[1]) == len(results[2]) == (6 if sweep else 4)
    for one, two in zip(results[1], results[2]):
        assert one.dtype == two.dtype and one.shape == two.shape
        assert one.tobytes() == two.tobytes()


def test_same_bytes_under_frequent_thread_switches(small_spec, small_symbol, monkeypatch):
    """The grids handed between the caller and the helper, and the transfer
    rows and bin series both workers write, stay intact when the threads
    interleave often."""
    n_frames = 6 * _CHUNK_FRAMES + 3
    monkeypatch.setattr(channel, "_WORKERS", 1)
    expected = [a.tobytes() for a in run_chain(small_spec, small_symbol, n_frames)]
    monkeypatch.setattr(channel, "_WORKERS", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            got = run_chain(small_spec, small_symbol, n_frames)
            assert [a.tobytes() for a in got] == expected
    finally:
        sys.setswitchinterval(interval)


def test_noise_does_not_depend_on_the_block_loop(small_spec, small_symbol, monkeypatch):
    scene = Scene(targets=[make_target(duration_s=2.0)], snr_db=10.0)
    frames = set()
    for chunk_frames in (16, 32, 48):
        for workers in (1, 2):
            monkeypatch.setattr(channel, "_CHUNK_FRAMES", chunk_frames)
            monkeypatch.setattr(channel, "_WORKERS", workers)
            capture = simulate_capture(scene, small_symbol, small_spec, n_frames=99, rng_seed=7)
            frames.add(capture.frames.tobytes())
    assert len(frames) == 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_frames", [1, _CHUNK_FRAMES - 1, _CHUNK_FRAMES, _CHUNK_FRAMES + 1,
                                      4 * _CHUNK_FRAMES + 1])
def test_split_blocks_calls_each_block_once_in_frame_order(monkeypatch, workers, n_frames):
    monkeypatch.setattr(channel, "_WORKERS", workers)
    calls, made = [], []

    def make():  # one fresh object per call, recorded with the thread that asked for it
        buffer = object()
        made.append((buffer, threading.current_thread()))
        return (buffer,)

    def block(start, stop, buffer):
        calls.append((start, stop, threading.current_thread(), buffer))
        return start, stop

    results = channel._split_blocks(n_frames, block, make)
    spans = sorted((start, stop) for start, stop, *_ in calls)
    assert len(set(spans)) == len(spans) == -(-n_frames // _CHUNK_FRAMES)
    assert all(0 < stop - start <= _CHUNK_FRAMES for start, stop in spans)
    assert [i for start, stop in spans for i in range(start, stop)] == list(range(n_frames))
    assert results == spans
    # the first range on the caller's thread, the helper only for the rest
    assert [t for start, _, t, _ in calls if start == 0] == [threading.current_thread()]
    helpers = {thread for _, _, thread, _ in calls} - {threading.current_thread()}
    assert len(helpers) == (workers > 1 and n_frames > _CHUNK_FRAMES)
    # each worker makes its buffers once, hands them to every one of its blocks, and no two
    # workers share them
    threads = [thread for _, thread in made]
    assert len(threads) == len(set(threads)) == 1 + len(helpers)
    assert len({id(buffer) for buffer, _ in made}) == len(made)
    mine = {thread: buffer for buffer, thread in made}
    assert all(buffer is mine[thread] for _, _, thread, buffer in calls)


@pytest.mark.parametrize("workers", [1, 2])
def test_split_blocks_over_no_frames_runs_nothing(monkeypatch, workers):
    monkeypatch.setattr(channel, "_WORKERS", workers)

    def never(*args):
        raise AssertionError("called with no frames")

    assert channel._split_blocks(0, never, never) == []


class TestWorkerCount:
    @pytest.mark.parametrize("cpus, expected", [({0}, 1), ({0, 1}, 2), ({0, 1, 2, 3}, 2)])
    def test_from_the_cpu_affinity(self, monkeypatch, cpus, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert channel._worker_count() == expected

    @pytest.mark.parametrize("cpus, expected", [(None, 1), (1, 1), (8, 2)])
    def test_from_the_cpu_count_without_affinity(self, monkeypatch, cpus, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert channel._worker_count() == expected

    def test_one_cpu_starts_no_helper_and_gives_the_same_bytes(self, small_spec, small_symbol,
                                                               monkeypatch):
        n_frames = 2 * _CHUNK_FRAMES + 1
        monkeypatch.setattr(channel, "_WORKERS", 2)
        threads = fft_threads(monkeypatch)
        two = run_chain(small_spec, small_symbol, n_frames)
        assert threads - {threading.current_thread()}  # helpers ran blocks

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(channel, "_WORKERS", channel._worker_count())

        def no_start(thread):
            raise AssertionError(f"thread {thread.name} started with one CPU")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        threads.clear()
        one = run_chain(small_spec, small_symbol, n_frames)
        assert threads == {threading.current_thread()}
        assert [a.tobytes() for a in one] == [b.tobytes() for b in two]


class Boom(RuntimeError):
    pass


def fail_on(monkeypatch, name, on_caller, call, module=np.fft):
    """Patch ``module.<name>`` (``numpy.fft`` by default) to raise on the
    ``call``-th call made on the caller's thread (``on_caller``) or on any
    other thread."""
    original = getattr(module, name)
    calls = []
    caller = threading.current_thread()

    def failing(*args, **kwargs):
        if (threading.current_thread() is caller) == on_caller:
            calls.append(1)
            if len(calls) == call:
                raise Boom(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)


class TestFailures:
    """A failure on the caller's thread or on the helper's reaches the
    caller, and the helper is joined before the call returns."""

    @pytest.fixture
    def capture(self, small_spec, small_symbol):
        scene = Scene(targets=[make_target(duration_s=2.0)], snr_db=10.0)
        return simulate_capture(scene, small_symbol, small_spec, n_frames=6 * _CHUNK_FRAMES)

    def run(self, monkeypatch, inject, stage):
        monkeypatch.setattr(channel, "_WORKERS", 2)
        before = threading.enumerate()
        outcome = {}

        def target():
            inject()  # the caller's thread is this one
            try:
                stage()
            except Boom as exc:
                outcome["raised"] = exc

        runner = threading.Thread(target=target)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "the call hung"
        assert isinstance(outcome.get("raised"), Boom)
        assert threading.enumerate() == before

    def test_simulator_caller(self, small_spec, small_symbol, monkeypatch):
        scene = Scene(targets=[make_target(duration_s=2.0)], snr_db=10.0)
        self.run(monkeypatch, lambda: fail_on(monkeypatch, "ifft", True, 3),
                 lambda: simulate_capture(scene, small_symbol, small_spec, n_frames=100))

    def test_simulator_helper(self, small_spec, small_symbol, monkeypatch):
        scene = Scene(targets=[make_target(duration_s=2.0)], snr_db=10.0)
        self.run(monkeypatch, lambda: fail_on(monkeypatch, "ifft", False, 2),
                 lambda: simulate_capture(scene, small_symbol, small_spec, n_frames=100))

    @pytest.mark.parametrize("on_caller", [True, False], ids=["caller", "helper"])
    def test_channel_estimate(self, capture, small_symbol, monkeypatch, on_caller):
        # the estimate is a view; its FFT runs in the range-power pass over the frames
        self.run(monkeypatch, lambda: fail_on(monkeypatch, "fft", on_caller, 2),
                 lambda: to_range_profiles(estimate_channel(capture, small_symbol)))

    @pytest.mark.parametrize("on_caller", [True, False], ids=["caller", "helper"])
    def test_bin_series(self, capture, small_symbol, monkeypatch, on_caller):
        series = estimate_channel(capture, small_symbol)
        self.run(monkeypatch, lambda: fail_on(monkeypatch, "vecdot", on_caller, 2, np),
                 lambda: bin_series(series, 3))

    @pytest.mark.parametrize("on_caller", [True, False], ids=["caller", "helper"])
    def test_range_profiles(self, capture, small_symbol, monkeypatch, on_caller):
        series = estimate_channel(capture, small_symbol)
        self.run(monkeypatch, lambda: fail_on(monkeypatch, "ifft", on_caller, 2),
                 lambda: to_range_profiles(series))
