"""The O(log n_max) per-instant lookups against the per-event definitions.

Instants are drawn where a lookup can go wrong: on an event time, one ulp
either side of it, and midway between neighbouring events.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbounce.channels import (WIDTH_RATIO_GATE, ScenarioParams, mixed_phase_gate,
                              reference_trajectory, split_width)
from qbounce import classical
from qbounce.classical import (SPREAD_CHUNK, channel_blocks, channel_kinematics,
                               collision_table, sample_spreads)
from oracles import (channel_event_times, channel_kinematics_dense, masses_from_epsilon,
                     pair_collision_times, state_at_linear_scan)


@st.composite
def admissible_params(draw):
    """ScenarioParams with eps in [1e-3, 0.2] that pass every gate."""
    eps = draw(st.floats(1e-3, 0.2))
    x_M0 = draw(st.floats(1.0, 50.0))
    y_M0 = x_M0 + draw(st.floats(1.0, 50.0))
    limit = WIDTH_RATIO_GATE * min(x_M0, y_M0 - x_M0)
    sigma0x = limit * draw(st.floats(0.05, 1.0))
    # broad-heavy branch: m_y sigma0y^2 > m_x sigma0x^2, i.e. sigma0y > eps sigma0x
    sigma0y = min(limit, eps * sigma0x
                  + (limit - eps * sigma0x) * draw(st.floats(0.01, 1.0)))
    return ScenarioParams(x_M0=x_M0, y_M0=y_M0, sigma0x=sigma0x, sigma0y=sigma0y,
                          p_x0=draw(st.floats(1.0, 1e4)),
                          masses=masses_from_epsilon(eps))


def draw_instant(data, times) -> float:
    """An event time, its float neighbour on either side, or a midpoint."""
    i = data.draw(st.integers(0, len(times) - 1))
    how = data.draw(st.sampled_from(["at", "below", "above", "mid"]))
    t = float(times[i])
    if how == "below":
        t = math.nextafter(t, -math.inf)
    elif how == "above":
        t = math.nextafter(t, math.inf)
    elif how == "mid":
        t = (t + float(times[min(i + 1, len(times) - 1)])) / 2
    return max(t, 0.0)


def endpoint_offsets(params):
    dsigma_y0, _ = split_width(params)
    return params.y_M0 - 3 * dsigma_y0, params.y_M0 + 3 * dsigma_y0


@settings(max_examples=60, deadline=None)
@given(params=admissible_params(), data=st.data())
def test_state_at_matches_linear_scan(params, data):
    traj = reference_trajectory(params)
    for _ in range(8):
        t = draw_instant(data, traj.t)
        assert traj.state_at(t) == state_at_linear_scan(traj, t)


@settings(max_examples=60, deadline=None)
@given(params=admissible_params(), data=st.data())
def test_mixed_phase_gate_matches_channel_counts(params, data):
    # the gate passes t exactly when the end channels agree on both counts
    ends = np.array(endpoint_offsets(params))
    table = collision_table(params.eps)
    times = np.sort(np.concatenate([[0.0], channel_event_times(ends, params.x_M0,
                                                               params.v_x0, table),
                                    reference_trajectory(params).t[1:]]))
    for _ in range(8):
        t = draw_instant(data, times)
        _, _, pairs, walls = channel_kinematics(t, ends, params.x_M0, params.v_x0, table)
        agree = bool(pairs[0] == pairs[1] and walls[0] == walls[1])
        assert mixed_phase_gate(params, t) is agree


@settings(max_examples=60, deadline=None)
@given(params=admissible_params(), data=st.data())
def test_channel_kinematics_pair_counts_over_channels(params, data):
    # one instant at a time against an array of channels
    dsigma_y0, _ = split_width(params)
    y0 = params.y_M0 + dsigma_y0 * np.linspace(-4, 4, 9)
    table = collision_table(params.eps)
    pair = pair_collision_times(y0, params.x_M0, params.v_x0, table)
    times = np.sort(np.concatenate([[0.0], pair.ravel()]))
    for _ in range(8):
        t = draw_instant(data, times)
        got = channel_kinematics(t, y0, params.x_M0, params.v_x0, table)[2]
        assert np.array_equal(got, (pair <= t).sum(axis=-1))


@settings(max_examples=60, deadline=None)
@given(params=admissible_params(), data=st.data())
def test_channel_kinematics_matches_dense(params, data):
    dsigma_y0, _ = split_width(params)
    y0 = params.y_M0 + dsigma_y0 * np.linspace(-4, 4, 41)
    x0, v0 = params.x_M0, params.v_x0
    table = collision_table(params.eps)
    times = np.concatenate([[0.0], channel_event_times(y0, x0, v0, table)])
    for _ in range(8):
        t = draw_instant(data, times)
        got = channel_kinematics(t, y0, x0, v0, table)
        want = channel_kinematics_dense(t, y0, x0, v0, table)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@settings(max_examples=60, deadline=None)
@given(params=admissible_params(), data=st.data())
def test_channel_kinematics_over_a_column_of_instants(params, data):
    # t shaped (T, 1): row j is, bit for bit, the call at instant j alone
    dsigma_y0, _ = split_width(params)
    y0 = params.y_M0 + dsigma_y0 * np.linspace(-4, 4, 41)
    x0, v0 = params.x_M0, params.v_x0
    table = collision_table(params.eps)
    times = np.concatenate([[0.0], channel_event_times(y0, x0, v0, table)])
    ts = np.array([draw_instant(data, times) for _ in range(8)])
    rows = channel_kinematics(ts[:, None], y0, x0, v0, table)
    for j, t in enumerate(ts):
        for got, want in zip(rows, channel_kinematics(float(t), y0, x0, v0, table)):
            assert got[j].dtype == want.dtype and got[j].tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(params=admissible_params(), data=st.data())
def test_channel_blocks_expand_to_channel_kinematics(params, data):
    # sorted Gaussian channels, at their own event times and between them,
    # eight instants in one call
    dsigma_y0, _ = split_width(params)
    seed, n = data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(1, 3000))
    y0 = np.sort(np.random.default_rng(seed).normal(params.y_M0, dsigma_y0, n))
    x0, v0 = params.x_M0, params.v_x0
    table = collision_table(params.eps)
    some = y0[data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))]
    times = np.concatenate([[0.0], channel_event_times(np.concatenate((y0[[0, -1]], some)),
                                                       x0, v0, table)])
    ts = np.array([draw_instant(data, times) for _ in range(8)])
    edges, pairs = channel_blocks(ts, y0, x0, v0, table)
    assert np.all(edges[:, 0] == 0) and np.all(edges[:, -1] == n)
    assert np.all(np.diff(edges) >= 0)
    for t, row, counts in zip(ts, edges, pairs):
        _, _, k, w = channel_kinematics(float(t), y0, x0, v0, table)
        sizes = np.diff(row)
        assert np.array_equal(np.repeat(counts, sizes), k)
        # sample_spreads folds the even blocks: the channels past the bounce
        # after their latest collision
        even = np.repeat(np.arange(len(sizes)) % 2 == 0, sizes)
        assert np.array_equal(even, w > table.walls[np.maximum(k - 1, 0)])


def spread_case():
    """Channels 6 sigma wide at eps = 0.05 and instants over twice the run:
    up to five pair counts at an instant, so chunks pad their rows."""
    table = collision_table(0.05)
    x0, y_m0, v0 = 25.0, 50.0, 190.0
    y0 = np.random.default_rng(0).normal(y_m0, 3.0, 1000)
    return y0, x0, v0, table, 2 * table.times[-1] * y_m0 / v0


def test_sample_spreads_does_no_work_per_instant(monkeypatch):
    # the kinematics run once per bisection round for a whole chunk, so ten
    # instants and a thousand make the same calls
    y0, x0, v0, table, end = spread_case()
    calls = []

    def counted(*args):
        calls.append(None)
        return after_collision(*args)

    after_collision = classical.after_collision
    monkeypatch.setattr(classical, "after_collision", counted)
    counts = []
    for instants in (10, 1000):
        calls.clear()
        sample_spreads(np.linspace(0.0, end, instants), y0, x0, v0, table)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_sample_spreads_chunks_equal_one_instant_calls():
    y0, x0, v0, table, end = spread_case()
    ts = np.linspace(0.0, end, SPREAD_CHUNK + 3)
    ends = channel_kinematics(ts[:, None], np.sort(y0)[[0, -1]], x0, v0, table)[2]
    assert len(set(ends[:, 0] - ends[:, 1])) > 2           # rows of several widths
    got = sample_spreads(ts, y0, x0, v0, table)
    want = np.array([sample_spreads([t], y0, x0, v0, table)[:, 0] for t in ts]).T
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # memory is one chunk's, whatever the schedule's length
    peaks = []
    for chunks in (1, 3):
        ts = np.linspace(0.0, end, chunks * SPREAD_CHUNK)
        tracemalloc.start()
        try:
            sample_spreads(ts, y0, x0, v0, table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_channel_kinematics_memory_linear_in_channels():
    """One call at eps = 0.01 (K = 79) allocates O(channels), not O(channels * K)."""
    n, x0, v0 = 100_000, 25.0, 190.0
    table = collision_table(0.01)
    assert table.count == 79
    y0 = np.random.default_rng(0).normal(50.0, 0.5, n)
    t = float(pair_collision_times(np.array([50.0]), x0, v0, table)[0, 40])
    tracemalloc.start()
    try:
        channel_kinematics(t, y0, x0, v0, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * n * 8


def test_sample_spreads_allocates_no_table_column():
    """A Monte Carlo instant at K = 785,398 costs O(log K): its searches read
    the table's columns and copy none of them."""
    table = collision_table(1e-6)
    assert table.count == 785_398
    x0, y_m0, v0 = 25.0, 50.0, 4000.0
    y0 = np.random.default_rng(0).normal(y_m0, 5e-4, 1000)
    ts = np.linspace(0.0, table.times[-1] * y_m0 / v0, 6)[1:]
    tracemalloc.start()
    try:
        sample_spreads(ts, y0, x0, v0, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table.times.nbytes


def test_state_at_before_start_rejected():
    traj = reference_trajectory(ScenarioParams(
        x_M0=25.0, y_M0=50.0, sigma0x=1.0, sigma0y=0.5, p_x0=190.0,
        masses=masses_from_epsilon(0.05)))
    with pytest.raises(ValueError, match="precedes"):
        traj.state_at(-1e-9)
