"""Window search (``counting_dim_profile``) against the per-size sort loop.

``unique_loop_counts`` is the kernel the rank-run chain replaced: for each
window size it lists the four windows of every cell and sums them after
three ``np.unique`` sorts.  It is kept here as the reference.  The drawn
sets mix small coordinates of either sign with clusters near +-2^53, dense
seeded clusters, single cells and single columns; the window lists are
dyadic, non-chained and spread up to 2^62, so both the bincount and the
sort count, the chain and the restart from cells all run.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from latslice import dimension as dim
from latslice.geometry import PointSet

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

BIG = 2.0 ** 53
OFFSETS = (0.0, BIG, -BIG, BIG / 2.0, -BIG + 7.0, -1e6)


def unique_loop_counts(ps: PointSet, sizes) -> list[int]:
    cx, cy, weight = ps.cell_arrays()
    counts = []
    for s in np.asarray(sizes, dtype=float).astype(np.int64):
        if cx.size == 0:
            counts.append(0)
            continue
        qx, qy = cx // (s // 2), cy // (s // 2)
        wx = np.concatenate([qx, qx, qx - 1, qx - 1])
        wy = np.concatenate([qy, qy - 1, qy, qy - 1])
        w = np.tile(weight, 4)
        _, rx = np.unique(wx, return_inverse=True)
        ys, ry = np.unique(wy, return_inverse=True)
        _, inv = np.unique(rx * len(ys) + ry, return_inverse=True)
        counts.append(int(np.bincount(inv, weights=w).max()))
    return counts


small = st.one_of(st.integers(-40, 40).map(float),
                  st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False))


@st.composite
def point_sets(draw):
    """One to three clusters, each around an offset from ``OFFSETS``: a few
    drawn points, a dense seeded cluster, one cell or one column."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        offset = np.array([draw(st.sampled_from(OFFSETS)),
                           draw(st.sampled_from(OFFSETS))])
        shape = draw(st.sampled_from(("drawn", "dense", "cell", "column")))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        n = draw(st.integers(1, 300))
        if shape == "drawn":
            rel = np.array(draw(st.lists(st.tuples(small, small), min_size=1,
                                         max_size=40)), dtype=float)
        elif shape == "dense":
            step = draw(st.sampled_from((1.0, 0.5, 3.0)))
            rel = np.round(rng.uniform(-20.0, 20.0, (n, 2)) / step) * step
        elif shape == "cell":
            rel = rng.uniform(0.0, 1.0, (n, 2)) * 0.99
        else:
            rel = np.column_stack([np.full(n, 0.25),
                                   rng.integers(-200, 200, n).astype(float)])
        parts.append(offset + rel)
    return PointSet(np.concatenate(parts))


@st.composite
def window_lists(draw):
    kind = draw(st.sampled_from(("dyadic", "nonchained", "spread")))
    if kind == "dyadic":
        lo = draw(st.integers(1, 61))
        hi = draw(st.integers(lo, 62))
        return [2.0 ** k for k in range(lo, hi + 1)]
    if kind == "nonchained":
        return [2.0, 6.0, 10.0, 30.0, 100.0]
    # halves past 2^53 that round to one float would give equal sizes
    halves = draw(st.lists(st.one_of(st.integers(1, 64),
                                     st.integers(1, 2 ** 61)),
                           min_size=1, max_size=8, unique_by=float))
    return [2.0 * h for h in sorted(halves)]


DIAGONAL = PointSet(np.column_stack([np.arange(300.0), np.arange(300.0)]) * 3.0)
LATTICE = PointSet(np.array([[x, y] for x in range(40) for y in range(40)],
                            dtype=float))


@SETTINGS
@given(ps=point_sets(), sizes=window_lists())
@example(ps=DIAGONAL, sizes=[2.0, 4.0, 8.0, 16.0])          # sorted count
@example(ps=DIAGONAL, sizes=[2.0, 6.0, 10.0, 30.0, 100.0])  # restart from cells
@example(ps=LATTICE, sizes=[2.0, 6.0, 10.0, 30.0, 100.0])   # bincount, restart
@example(ps=LATTICE, sizes=[2.0, 8.0, 32.0, 2.0 ** 62])     # chain by 4
@example(ps=PointSet([[-BIG, -BIG], [BIG, BIG], [-BIG + 1.0, BIG - 1.0]]),
         sizes=[2.0 ** k for k in range(1, 63)])
@example(ps=PointSet([[0.5, -0.5]]), sizes=[2.0, 4.0, 2.0 ** 62])
def test_counts_match_the_unique_loop(ps, sizes):
    prof = dim.counting_dim_profile(ps, window_sizes=sizes)
    assert prof.counts.dtype == np.int64
    assert prof.counts.tolist() == unique_loop_counts(ps, sizes)


@pytest.mark.parametrize("sizes", [[4.0, 2.0], [2.0, 2.0], [2.0, 8.0, 4.0]])
def test_unsorted_sizes_are_refused_before_any_counting(sizes, monkeypatch):
    def count(*args):
        raise AssertionError("counted before the sizes were checked")

    monkeypatch.setattr(dim, "_count_windows", count)
    ps = PointSet([[0.0, 0.0], [3.0, 1.0]])
    with pytest.raises(ValueError, match="strictly increasing"):
        dim.counting_dim_profile(ps, window_sizes=sizes)
    # a set whose cells int64 cannot hold fails only once counting starts
    far = PointSet([[1e19, 0.0]])
    with pytest.raises(ValueError, match="strictly increasing"):
        dim.counting_dim_profile(far, window_sizes=sizes)


def test_cells_beyond_int64_raise_overflow():
    with pytest.raises(OverflowError):
        dim.counting_dim_profile(PointSet([[1e19, 0.0], [0.0, 0.0]]),
                                 window_sizes=[2.0, 4.0])


def test_sizes_must_be_a_nonempty_list():
    ps = PointSet([[0.0, 0.0]])
    for sizes in ([], [[2.0, 4.0]]):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            dim.counting_dim_profile(ps, window_sizes=sizes)


def window_max_by_dict(cols, rows, rx, ry, w):
    """Largest window sum and the merged blocks, by a dictionary scan."""
    blocks, windows = {}, {}
    for i, j, wt in zip(rx.tolist(), ry.tolist(), w.tolist()):
        c, r = int(cols[i]), int(rows[j])
        blocks[c, r] = blocks.get((c, r), 0) + wt
        for a in (c, c - 1):
            for b in (r, r - 1):
                windows[a, b] = windows.get((a, b), 0) + wt
    return max(windows.values()), blocks


@pytest.mark.parametrize("weight", [1, 3, 2 ** 40])
@pytest.mark.parametrize("ranks", [32, 1024])
def test_count_windows_by_every_path(weight, ranks):
    # 32 ranks a side is a grid no larger than the keys (bincount); 1024 is
    # sorted, with the weights packed into the keys unless 2^40 leaves no
    # room, which falls back to an argsort
    rng = np.random.default_rng(ranks + weight)
    cols = np.cumsum(rng.integers(1, 3, ranks))
    rows = np.cumsum(rng.integers(1, 3, ranks)) - 500
    cells = rng.choice(ranks * ranks, size=1500, replace=ranks * ranks < 1500)
    rx, ry = cells // ranks, cells % ranks
    w = rng.integers(1, 4, len(cells)) * weight
    best, merged = dim._count_windows(cols, rows, rx, ry, w, True)
    ref_best, ref_blocks = window_max_by_dict(cols, rows, rx, ry, w)
    assert best == ref_best
    mc, mr, mx, my, mw = merged
    got = {(int(mc[i]), int(mr[j])): int(wt)
           for i, j, wt in zip(mx.tolist(), my.tolist(), mw.tolist())}
    assert got == ref_blocks
    assert np.all(np.diff(mx * len(mr) + my) > 0)     # merged blocks stay sorted



def test_the_kept_cells_are_built_once_and_read_only():
    ps = PointSet([[0.5, 0.5], [0.25, 0.75], [3.0, -2.0], [7.5, 1.0]])
    cells = ps.cell_ranks()
    assert ps.cell_ranks() is cells
    for arr in cells:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 99
    assert [a.tolist() for a in cells] == [[0, 3, 7], [-2, 0, 1], [0, 1, 2],
                                           [1, 0, 2], [2, 1, 1]]
    sizes = [2.0, 4.0, 8.0, 16.0]
    assert dim.counting_dim_profile(ps, window_sizes=sizes).counts.tolist() \
        == unique_loop_counts(PointSet(ps.points), sizes)
