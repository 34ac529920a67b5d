"""Tests for wall/CPU time accounting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.simos.sync import NO_SYNC, SyncProfile
from repro.simos.timebase import TimeAccounting, account_run, account_runs


class TestTimeAccountingValidation:
    def test_cpu_cannot_exceed_wall_times_threads(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            TimeAccounting(
                wall_time_s=1.0, serial_time_s=0.0, parallel_time_s=1.0,
                total_cpu_s=5.0, n_threads=4,
            )

    def test_scalability_ratio(self):
        t = TimeAccounting(1.0, 0.0, 1.0, total_cpu_s=2.0, n_threads=4)
        assert t.avg_thread_cpu_s == pytest.approx(0.5)
        assert t.scalability_ratio == pytest.approx(2.0)


class TestAccountRun:
    def test_fully_parallel_ratio_is_one(self):
        t = account_run(1e9, parallel_useful_rate=1e9, serial_rate=1e8,
                        sync=NO_SYNC, n_threads=8)
        assert t.scalability_ratio == pytest.approx(1.0)
        assert t.serial_time_s == 0.0

    def test_serial_fraction_raises_ratio(self):
        sync = SyncProfile(serial_fraction=0.5)
        t = account_run(1e9, parallel_useful_rate=8e8, serial_rate=1e8,
                        sync=sync, n_threads=8)
        # During the serial phase 7 of 8 threads sleep.
        assert t.scalability_ratio > 1.5

    def test_blocking_raises_ratio(self):
        sync = SyncProfile(block_coeff=0.5, block_half=1.0)
        t = account_run(1e9, parallel_useful_rate=1e9, serial_rate=1e8,
                        sync=sync, n_threads=16)
        assert t.scalability_ratio > 1.5

    def test_spin_does_not_raise_ratio(self):
        # Spinning threads are on-CPU: the paper's factor 3 must not see them.
        sync = SyncProfile(spin_coeff=0.8, spin_half=1.0)
        t = account_run(1e9, parallel_useful_rate=1e9, serial_rate=1e8,
                        sync=sync, n_threads=16)
        assert t.scalability_ratio == pytest.approx(1.0)

    def test_wall_is_serial_plus_parallel(self):
        sync = SyncProfile(serial_fraction=0.2)
        t = account_run(1e9, parallel_useful_rate=4e9, serial_rate=1e9,
                        sync=sync, n_threads=4)
        assert t.wall_time_s == pytest.approx(t.serial_time_s + t.parallel_time_s)
        assert t.serial_time_s == pytest.approx(0.2)
        assert t.parallel_time_s == pytest.approx(0.2)

    @given(
        st.floats(min_value=0.0, max_value=0.8),
        st.floats(min_value=0.0, max_value=0.8),
        st.integers(min_value=1, max_value=64),
    )
    def test_ratio_at_least_one(self, serial, block, n):
        sync = SyncProfile(serial_fraction=serial, block_coeff=block)
        t = account_run(1e9, parallel_useful_rate=1e9, serial_rate=5e8,
                        sync=sync, n_threads=n)
        assert t.scalability_ratio >= 1.0 - 1e-9

    def test_rejects_nonpositive_work(self):
        with pytest.raises(ValueError):
            account_run(0.0, 1e9, 1e9, NO_SYNC, 4)


class TestAccountRuns:
    """The array form agrees with :func:`account_run` bit for bit."""

    @given(st.lists(
        st.tuples(
            st.floats(min_value=1e6, max_value=1e12),
            st.floats(min_value=1e6, max_value=1e11),
            st.floats(min_value=1e6, max_value=1e10),
            st.floats(min_value=0.0, max_value=0.9),
            st.floats(min_value=0.0, max_value=1.0),
            st.integers(min_value=1, max_value=64),
        ),
        min_size=1, max_size=8,
    ))
    def test_matches_scalar_exactly(self, runs):
        syncs = [SyncProfile(serial_fraction=s, block_coeff=b)
                 for _, _, _, s, b, _ in runs]
        ns = [n for *_, n in runs]
        arrays = account_runs(
            useful_instructions=np.array([r[0] for r in runs]),
            parallel_useful_rate=np.array([r[1] for r in runs]),
            serial_rate=np.array([r[2] for r in runs]),
            serial_fraction=np.array([s.serial_fraction for s in syncs]),
            runnable=np.array([s.runnable_fraction(n) for s, n in zip(syncs, ns)]),
            n_threads=np.array(ns),
        )
        for i, (work, rate, serial_rate, *_rest) in enumerate(runs):
            t = account_run(work, rate, serial_rate, syncs[i], ns[i])
            got = tuple(float(a[i]) for a in arrays)
            assert got == (t.wall_time_s, t.serial_time_s,
                           t.parallel_time_s, t.total_cpu_s)

    @pytest.mark.parametrize("field", ["useful_instructions",
                                       "parallel_useful_rate", "serial_rate"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_what_the_scalar_rejects(self, field, bad):
        kwargs = dict(
            useful_instructions=np.array([1e9, 1e9]),
            parallel_useful_rate=np.array([1e9, 1e9]),
            serial_rate=np.array([1e8, 1e8]),
            serial_fraction=np.zeros(2),
            runnable=np.ones(2),
            n_threads=np.array([4, 4]),
        )
        kwargs[field] = np.array([1e9, bad])
        with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
            account_runs(**kwargs)
