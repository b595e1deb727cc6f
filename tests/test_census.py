"""Tests for the planar polygon census, its cache, and maximal polygons."""

from __future__ import annotations

import copy
import errno
import gc
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qhelly import census as census_module
from qhelly.census import (
    CensusFile,
    CensusStore,
    CACHE_ENV_VAR,
    _edge_relint_lattice_point,
    _has_width_two,
    _hull_pick_counts,
    _moved_out,
    _splice,
    _strict_interior_lattice_points,
    _vertex_drop,
    c_z2_profile,
    certified_box_bound,
    enumerate_polygon_classes,
    expand_to_maximal,
    max_height,
    maximal_membership,
    parse_census_file,
    width1_trapezoid,
)
from qhelly.constants import Enclosure
from qhelly.engine import enumerate_convex_subsets, g_profile
from qhelly.errors import (
    BudgetExceededError,
    CacheCorruptError,
    CacheError,
    CacheIncompleteError,
    CacheMissingError,
    DegenerateInputError,
    GuardRadiusError,
)
from qhelly.extint import Profile
from qhelly.lattice import (
    FiniteSite,
    _anchored_leads,
    _edge_facets,
    _hull_cycle_2d,
    canonical_form_2d,
    census,
    convex_hull,
    is_canonical_cycle_2d,
)
from qhelly.witnesses import tight_recipe
from profile_oracles import unrolled_c
from row_dfs_oracle import row_dfs_classes
from scan_oracles import (
    _anchored_images,
    _drop_vertex,
    box_census,
    census_tuple,
    edge_relint_lattice_point,
    lattice_width_2d,
    strict_interior_cell_scan,
    twice_area,
)

HEXAGON = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
DEVCACHE = Path(__file__).resolve().parent / "golden"
PUBLISHED_CLASS_COUNTS = (1, 16, 45, 120, 211, 403, 714, 1023, 1830, 2700, 3659)
PLANAR_TABLE = (4, 6, 6, 6, 8, 7, 8, 9, 8, 8, 10)


# ---------------------------------------------------------------------------
# enumeration


def test_known_class_counts_small_interior():
    # equivalence classes of lattice polygons with <= 2 interior points
    assert len(enumerate_polygon_classes(0)[0]) == 1
    assert len(enumerate_polygon_classes(1)[1]) == 16
    assert len(enumerate_polygon_classes(2)[2]) == 45


def test_known_class_counts_interior_three_and_four():
    assert len(enumerate_polygon_classes(3)[3]) == 120
    assert len(enumerate_polygon_classes(4)[4]) == 211


def test_every_class_reports_its_own_interior_count(small_cache):
    for i in range(4):
        for cls in small_cache.load(i).classes:
            assert cls.interior == i
            assert cls.vertex_count == len(cls.vertices)
            assert cls.nonvertex == cls.interior + cls.boundary
            assert lattice_width_2d(convex_hull(cls.vertices)) >= 2


def test_hexagon_class_is_enumerated():
    cycle = convex_hull(HEXAGON).vertices
    canonical = canonical_form_2d(cycle, twice_area(cycle))
    classes = enumerate_polygon_classes(1)[1]
    assert any(cls.vertices == canonical for cls in classes)
    assert max(cls.vertex_count for cls in classes) == 6


def test_interior_zero_is_the_doubled_triangle():
    # width-1 shapes are excluded, leaving only conv{(0,0),(2,0),(0,2)}
    (cls,) = enumerate_polygon_classes(0)[0]
    assert cls.vertex_count == 3 and cls.interior == 0
    assert lattice_width_2d(convex_hull(cls.vertices)) == 2
    counts = census(convex_hull(cls.vertices))
    assert census_tuple(counts) == (6, 3, 3, 0, 3)


def test_enumeration_matches_row_dfs_oracle():
    # the row DFS reaches each class by its rows, a route apart from moving out edges
    oracle = row_dfs_classes(5)
    buckets = enumerate_polygon_classes(5)
    for i in range(6):
        assert buckets[i] == oracle[i], f"interior {i}"


_SMALL = st.integers(-12, 12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SMALL, _SMALL), min_size=3, max_size=12))
@example([(0, 0), (5, 1), (1, 4)])  # a triangle parent with interior points
@example([(0, 0), (1, 0), (0, 1)])  # every chain is the chord, every child a segment
@example([(0, 0), (1, 0), (1, 1), (0, 1)])  # every chain is the chord of a square
# a drop at the lex-min vertex, where a chain point becomes the lex-min
@example([(0, 0), (4, 0), (0, 4)])
# drops next to the lex-min vertex (-1, 3), both with a triangle to scan
@example([(0, 0), (6, 1), (7, 3), (2, 5), (-1, 3)])
def test_local_vertex_drop_is_the_hull_of_the_remaining_points(points):
    # the spliced chain, read from the lex-min vertex, is the oracle's hull of
    # the lattice points left after the drop, and the counts derived from the
    # chain are the child's Pick counts, so the descent accepts the child
    # exactly when its Pick count is right
    cycle = _hull_cycle_2d(points)
    assume(len(cycle) >= 3)
    interior, nonvertex = _hull_pick_counts(cycle)
    boundary = nonvertex + len(cycle)
    twice_area = 2 * interior + boundary - 2
    for j in range(len(cycle)):
        area, b, chain = _vertex_drop(cycle, j, twice_area, boundary)
        child = _splice(cycle, j, chain)
        lead = child.index(min(child))
        expected = _drop_vertex(cycle, j)
        assert child[lead:] + child[:lead] == expected
        if len(child) < 3:
            assert area == 0
            continue
        assert _hull_pick_counts(expected) == ((area - b + 2) // 2, b - len(child))
        # the descent canonicalizes the child as spliced, from w on
        assert canonical_form_2d(child, area) == canonical_form_2d(expected, area)


def test_box_closed_sets_are_census_classes():
    # closed sets of the 7x4 box, from the finite-site engine, a route that
    # shares no code with the descent: every hull of width >= 2 with at most
    # 10 interior points is a stored class, and the box holds every class
    # with at most 2 interior points
    golden = []
    for i in range(len(PUBLISHED_CLASS_COUNTS)):
        text = (DEVCACHE / f"interior_{i:02d}.census").read_text()
        golden.append({cls.vertices for cls in parse_census_file(text).classes})
    site = FiniteSite.grid(7, 4)
    hulls = {_hull_cycle_2d(site.points_of(v)) for v in enumerate_convex_subsets(site).values()}
    found = [set() for _ in golden]
    for cycle in hulls:
        if len(cycle) < 3:
            continue
        interior, _ = _hull_pick_counts(cycle)
        canon = canonical_form_2d(cycle, twice_area(cycle))
        if interior < len(golden) and _has_width_two(interior, canon):
            assert canon in golden[interior]
            found[interior].add(canon)
    assert [len(classes) for classes in found[:3]] == list(PUBLISHED_CLASS_COUNTS[:3])


def test_six_by_five_box_profile_is_the_planar_table():
    # the finite-site engine, which never reads a census file, gives the
    # whole planar table on the 6x5 box, as the census does
    box = g_profile(FiniteSite.grid(6, 5), 10)
    planar = c_z2_profile(10, CensusStore(DEVCACHE))
    assert box.g == box.c == planar.g == PLANAR_TABLE


def _moved_half_planes(q) -> list:
    """(n, c) with n primitive and inner: the edge lines of the ccw cycle q
    moved out by lattice distance 1 are n . z = c."""
    out = []
    for (px, py), (x, y) in zip(q[-1:] + q[:-1], q):
        g = gcd(x - px, y - py)
        n = ((py - y) // g, (x - px) // g)
        out.append((n, n[0] * px + n[1] * py - 1))
    return out


def test_edge_facets_moved_out_are_the_moved_half_planes():
    # n . x <= c outward is -n . x >= -c inward, moved out to -c - 1; the
    # moved half-planes start at the edge into q[0], the facets at the one
    # out of it
    for i in range(5):
        for cls in parse_census_file((DEVCACHE / f"interior_{i:02d}.census").read_text()).classes:
            q = cls.vertices
            moved = _moved_half_planes(q)
            facets = _edge_facets(q)
            assert [((-nx, -ny), -c - 1) for (nx, ny), c in facets] == moved[1:] + moved[:1]


def test_moving_out_the_edges():
    # the unit triangle moves out to 4 Delta, whose interior points it holds
    assert _moved_out(((0, 0), (1, 0), (0, 1))) == ((-1, -1), (3, -1), (-1, 3))
    # the edge lines of conv{(0,0),(3,0),(0,1)} meet at (-1, 5/3) once moved
    assert _moved_out(((0, 0), (3, 0), (0, 1))) is None
    # here the moved lines meet at lattice points, but the short edge from
    # (0,0) to (1,0) vanishes: its moved line meets those of its neighbours
    # at (3,-1) and (2,-1), in reverse order
    assert _moved_out(((-4, 1), (0, 0), (1, 0), (0, 2), (-1, 2))) is None
    # Koelman: a polygon lies in the moved-out hull of its interior points
    spanning = 0
    for i in range(2, 11):
        for cls in parse_census_file((DEVCACHE / f"interior_{i:02d}.census").read_text()).classes:
            q = _hull_cycle_2d(_strict_interior_lattice_points(cls.vertices, 1))
            if len(q) < 3:
                continue
            spanning += 1
            assert _moved_out(q) is not None
            for (nx, ny), c in _moved_half_planes(q):
                assert all(nx * x + ny * y >= c for x, y in cls.vertices), cls.vertices
    assert spanning > 0


def test_enumeration_threads_agree():
    assert enumerate_polygon_classes(3, threads=1) == enumerate_polygon_classes(
        3, threads=2
    )


@pytest.mark.parametrize("enabled", [True, False])
def test_threaded_build_restores_the_collector_state(enabled):
    # the collector is off while the pool lives, then as the caller left it
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert enumerate_polygon_classes(2, threads=2) == enumerate_polygon_classes(2)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _collector_state() -> tuple[bool, int]:
    return gc.isenabled(), gc.get_freeze_count()


@pytest.mark.parametrize("collect", [True, False])
def test_pool_workers_freeze_what_they_inherit(collect):
    # forked with the collector off, as enumerate_polygon_classes forks them
    from concurrent.futures import ProcessPoolExecutor

    was = gc.isenabled()
    gc.disable()
    try:
        with ProcessPoolExecutor(
            max_workers=1, initializer=census_module._start_worker, initargs=(collect,)
        ) as pool:
            enabled, frozen = pool.submit(_collector_state).result()
    finally:
        (gc.enable if was else gc.disable)()
    assert enabled is collect and frozen > gc.get_freeze_count()


def test_height_and_box_bounds_grow():
    heights = [max_height(i) for i in range(12)]
    assert heights == sorted(heights) and heights[0] >= 2
    boxes = [certified_box_bound(i) for i in range(12)]
    assert boxes == sorted(boxes)
    # the hexagon fits its box with room to spare
    assert max(abs(c) for v in HEXAGON for c in v) * 2 < certified_box_bound(1)


def test_lattice_width():
    assert lattice_width_2d(convex_hull(HEXAGON)) == 2
    assert lattice_width_2d(convex_hull([(0, 0), (5, 0), (5, 1), (0, 1)])) == 1


# ---------------------------------------------------------------------------
# cache format


def test_cache_round_trip_is_byte_exact(small_cache):
    text = small_cache.path(3).read_text()
    parsed = parse_census_file(text)
    assert parsed.render() == text
    assert text.endswith("\n")
    assert text.splitlines()[-1] == f"count={len(parsed.classes)}"


def test_cache_save_then_load(tmp_path):
    store = CensusStore(tmp_path)
    store.ensure(1)
    file = store.load(1)
    assert file.interior == 1 and file.complete
    assert len(file.classes) == 16
    assert store.is_complete(1) and not store.is_complete(2)
    assert store.missing(3) == (2, 3)


def test_cache_missing_file(tmp_path):
    with pytest.raises(CacheMissingError):
        CensusStore(tmp_path).load(0)


def test_cache_rejects_wrong_version(tmp_path):
    store = CensusStore(tmp_path)
    store.ensure(0)
    path = store.path(0)
    path.write_text(path.read_text().replace("polygon-census v1", "polygon-census v9"))
    with pytest.raises(CacheCorruptError):
        store.load(0)


def test_cache_rejects_truncation(tmp_path):
    store = CensusStore(tmp_path)
    store.ensure(0)
    path = store.path(0)
    text = path.read_text()
    path.write_text(text[: text.rindex("count=")])
    with pytest.raises(CacheCorruptError):
        store.load(0)
    path.write_text(text.rstrip("\n"))
    with pytest.raises(CacheCorruptError):
        store.load(0)


def test_cache_rejects_wrong_trailer_count(tmp_path):
    store = CensusStore(tmp_path)
    store.ensure(0)
    path = store.path(0)
    path.write_text(path.read_text().replace("count=1", "count=7"))
    with pytest.raises(CacheCorruptError):
        store.load(0)


def test_cache_rejects_tampered_vertices(tmp_path):
    store = CensusStore(tmp_path)
    store.ensure(1)
    path = store.path(1)
    lines = path.read_text().splitlines()
    # corrupt the first class body while keeping the line shape
    fields = lines[1].split()
    fields[2] = str(int(fields[2]) + 40)
    lines[1] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheCorruptError):
        store.load(1)


def test_cache_rejects_unsorted_classes(tmp_path):
    store = CensusStore(tmp_path)
    store.ensure(1)
    path = store.path(1)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheCorruptError):
        store.load(1)


def test_cache_rejects_a_repeated_class(tmp_path):
    store = CensusStore(tmp_path)
    store.ensure(1)
    path = store.path(1)
    lines = path.read_text().splitlines()
    lines.insert(2, lines[1])
    lines[-1] = f"count={len(lines) - 2}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheCorruptError, match="not sorted and distinct"):
        store.load(1)


def test_incomplete_flag_and_small_boxes_are_not_complete(tmp_path):
    store = CensusStore(tmp_path)
    store.ensure(0)
    file = store.load(0)
    store.save(CensusFile(file.interior, file.box, False, file.classes))
    assert not store.is_complete(0)
    store.save(CensusFile(file.interior, certified_box_bound(0) - 2, True, file.classes))
    assert not store.is_complete(0)


def test_ensure_resumes_after_deletion(tmp_path):
    store = CensusStore(tmp_path)
    assert store.ensure(2) == (0, 1, 2)
    store.path(1).unlink()
    assert store.missing(2) == (1,)
    assert store.ensure(2) == (1,)
    assert store.missing(2) == ()


def _golden_bytes(store: CensusStore, i: int) -> bytes:
    return (DEVCACHE / store.path(i).name).read_bytes()


def _count_enumerations(monkeypatch) -> list:
    calls = []
    original = census_module.enumerate_polygon_classes

    def counted(i_max, *args, **kwargs):
        calls.append(i_max)
        return original(i_max, *args, **kwargs)

    monkeypatch.setattr(census_module, "enumerate_polygon_classes", counted)
    return calls


def test_ensure_builds_every_count_in_one_pass(tmp_path, monkeypatch):
    calls = _count_enumerations(monkeypatch)
    store = CensusStore(tmp_path)
    assert store.ensure(4) == (0, 1, 2, 3, 4)
    assert calls == [4]
    for i in range(5):
        assert store.path(i).read_bytes() == _golden_bytes(store, i)
    assert store.ensure(4) == ()
    assert calls == [4]


def test_ensure_builds_only_the_missing_counts(tmp_path, monkeypatch):
    store = CensusStore(tmp_path)
    for i in (0, 1, 3):
        store.path(i).write_bytes(_golden_bytes(store, i))
    # a saved file is replaced by a new one, so an untouched file keeps its inode
    inodes = {i: store.path(i).stat().st_ino for i in (0, 1, 3)}
    calls = _count_enumerations(monkeypatch)
    assert store.ensure(4) == (2, 4)
    assert calls == [4]
    assert {i: store.path(i).stat().st_ino for i in (0, 1, 3)} == inodes
    for i in range(5):
        assert store.path(i).read_bytes() == _golden_bytes(store, i)


def test_two_census_processes_on_one_empty_cache(tmp_path):
    # both build and save every count; each save replaces the target
    # atomically with a pid-suffixed temp file, so neither run fails and
    # the directory ends with the golden bytes and no temp file
    src = str(Path(census_module.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    argv = [sys.executable, "-m", "qhelly.cli", "census", "--k", "5", "--cache", str(tmp_path)]
    runs = [
        subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(2)
    ]
    outputs = [run.communicate() for run in runs]
    assert [run.returncode for run in runs] == [0, 0], [err for _, err in outputs]
    assert outputs[0][0] == outputs[1][0]
    store = CensusStore(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [store.path(i).name for i in range(6)]
    for i in range(6):
        assert store.path(i).read_bytes() == _golden_bytes(store, i)


def test_store_directory_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    store = CensusStore()
    assert store.path(0).parent == tmp_path
    monkeypatch.delenv(CACHE_ENV_VAR)
    with pytest.raises(ValueError):
        CensusStore()
    # an empty value is unset too, not Path(""), the current directory
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    message = f"^no cache directory given and {CACHE_ENV_VAR} is not set$"
    with pytest.raises(ValueError, match=message):
        CensusStore()
    # and so is an empty directory argument, which falls back to the variable
    with pytest.raises(ValueError, match=message):
        CensusStore("")
    # Path("") is Path("."), so an empty Path is not given either
    with pytest.raises(ValueError, match=message):
        CensusStore(Path(""))
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    assert CensusStore("").directory == tmp_path
    assert CensusStore(Path("")).directory == tmp_path
    assert CensusStore(".").directory == Path(".")


def test_is_complete_reads_only_the_header(tmp_path):
    store = CensusStore(tmp_path)
    store.ensure(1)
    path = store.path(1)
    text = path.read_text()
    header, body = text.split("\n", 1)
    # a corrupt body is left to the validated load
    path.write_text(header + "\n" + body.replace("count=16", "count=17"))
    assert store.is_complete(1)
    with pytest.raises(CacheCorruptError):
        store.load(1)
    for bad in (
        header.replace("complete=1", "complete=yes"),
        header.replace("polygon-census v1", "polygon-census v9"),
        header.replace("interior=1", "interior=2"),
    ):
        path.write_text(bad + "\n" + body)
        with pytest.raises(CacheCorruptError):
            store.is_complete(1)


def test_load_names_the_file_of_a_parse_failure(tmp_path):
    store = CensusStore(tmp_path)
    path = store.path(1)
    text = _golden_bytes(store, 1).decode("ascii")
    path.write_text(text.replace("count=16", "count=17"))
    with pytest.raises(CacheCorruptError, match="count trailer says 17") as excinfo:
        store.load(1)
    assert str(excinfo.value).startswith(f"{path}: ")
    path.write_text(text.replace("interior=1", "interior=01"))
    with pytest.raises(CacheCorruptError, match="malformed census header") as excinfo:
        store.is_complete(1)
    assert str(excinfo.value).startswith(f"{path}: ")


def test_numbers_too_long_for_int_fail_the_load_with_the_file_name(tmp_path):
    # int() refuses more than 4,300 digits by default; both the class
    # lines and the header turn that ValueError into a corrupt cache
    store = CensusStore(tmp_path)
    path = store.path(1)
    text = _golden_bytes(store, 1).decode("ascii")
    huge = "1" + "0" * 4999
    path.write_text(text.replace("\n3 0 0 1 0 2 3\n", f"\n3 0 0 1 0 2 {huge}\n"))
    with pytest.raises(CacheCorruptError, match="malformed census file") as excinfo:
        store.load(1)
    assert str(excinfo.value).startswith(f"{path}: ")
    path.write_text(text.replace("interior=1 ", f"interior={huge} "))
    for read in (store.is_complete, store.load):
        with pytest.raises(CacheCorruptError, match="malformed census header") as excinfo:
            read(1)
        assert str(excinfo.value).startswith(f"{path}: ")


def test_cache_rejects_non_ascii_bytes(tmp_path):
    store = CensusStore(tmp_path)
    path = store.path(1)
    text = _golden_bytes(store, 1)
    for broken in (text.replace(b"count=", b"count=\xff"), b"\xc3\xa9" + text):
        path.write_bytes(broken)
        with pytest.raises(CacheCorruptError, match=re.escape(str(path))):
            store.load(1)
    with pytest.raises(CacheCorruptError, match="malformed census header"):
        store.is_complete(1)


def test_store_maps_os_errors_to_cache_errors(tmp_path):
    # a plain file where the cache directory should be
    plain = tmp_path / "plain"
    plain.write_text("not a directory\n")
    store = CensusStore(plain)
    file = parse_census_file(_golden_bytes(store, 0).decode("ascii"))
    for attempt in (lambda: store.is_complete(0), lambda: store.load(0), lambda: store.save(file)):
        with pytest.raises(CacheError, match=re.escape(str(store.path(0)))) as excinfo:
            attempt()
        assert excinfo.type is CacheError
    assert plain.read_text() == "not a directory\n"


def _disk_full(monkeypatch) -> None:
    """Path.write_text writes half its text, then fails as on a full disk."""
    write_text = Path.write_text

    def half_then_enospc(self, data, *args, **kwargs):
        write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))

    monkeypatch.setattr(Path, "write_text", half_then_enospc)


def _rename_fails(monkeypatch) -> None:
    def refuse(src, dst):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), str(dst))

    monkeypatch.setattr(census_module.os, "replace", refuse)


@pytest.mark.parametrize("failure", [_disk_full, _rename_fails])
def test_failed_save_removes_its_own_temporary_file_only(tmp_path, monkeypatch, failure):
    store = CensusStore(tmp_path)
    file = parse_census_file(_golden_bytes(store, 0).decode("ascii"))
    # another writer's temporary file, which may be live, stays
    other = tmp_path / f"{store.path(0).name}.tmp{os.getpid() + 1}"
    other.write_text("another writer\n")
    failure(monkeypatch)
    with pytest.raises(CacheError, match=re.escape(str(store.path(0)))) as excinfo:
        store.save(file)
    assert excinfo.type is CacheError
    assert sorted(tmp_path.iterdir()) == [other]
    assert other.read_text() == "another writer\n"


# ---------------------------------------------------------------------------
# O(v) validation of census classes


def _one_class_file(interior: int, verts) -> str:
    coords = " ".join(f"{x} {y}" for x, y in verts)
    return (
        f"polygon-census v1 interior={interior} box={certified_box_bound(interior)} "
        f"complete=1\n{len(verts)} {coords}\ncount=1\n"
    )


def test_single_class_file_passes_validation():
    (cls,) = parse_census_file(_one_class_file(0, ((0, 0), (2, 0), (0, 2)))).classes
    assert (cls.interior, cls.boundary) == (0, 3)
    assert lattice_width_2d(convex_hull(cls.vertices)) == 2


@pytest.mark.parametrize(
    "verts",
    [
        ((0, 0), (0, 2), (2, 0)),  # clockwise
        ((2, 0), (0, 2), (0, 0)),  # not started at the lex-min vertex
        ((0, 0), (2, 0), (1, 1), (2, 2), (0, 2)),  # reflex vertex (1, 1)
        ((0, 0), (1, 0), (2, 0), (0, 2)),  # collinear vertex (1, 0)
        ((0, 0), (1, 1), (2, 2)),  # segment
        ((-1, 2), (3, 2), (1, 3), (0, 0), (2, 0)),  # clockwise pentagon
        ((0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)),  # pentagon, not started at (-1, 2)
        ((-1, 2), (0, 0), (1, 0), (2, 0), (3, 2), (1, 3)),  # collinear middle vertex (1, 0)
    ],
)
def test_validation_rejects_non_hull_cycles(verts):
    with pytest.raises(CacheCorruptError, match="not a polygon hull"):
        parse_census_file(_one_class_file(0, verts))


def test_validation_rejects_a_pentagram():
    # the pentagon (-1, 2), (0, 0), (2, 0), (3, 2), (1, 3) visited at every
    # second vertex: every turn is strictly left, but the edges wind twice
    star = ((-1, 2), (2, 0), (1, 3), (0, 0), (3, 2))
    turns = [
        (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        for a, b, c in zip(star[-2:] + star[:-2], star[-1:] + star[:-1], star)
    ]
    assert min(star) == star[0] and min(turns) > 0
    with pytest.raises(CacheCorruptError, match="not a polygon hull"):
        parse_census_file(_one_class_file(2, star))


@pytest.mark.parametrize(
    "interior, verts, message",
    [
        # clockwise 2 Delta, whose Pick count would also be wrong
        (1, ((0, 0), (0, 2), (2, 0)), "not a polygon hull"),
        # a pentagram, also wrong for Pick and with width >= 2
        (0, ((-1, 2), (2, 0), (1, 3), (0, 0), (3, 2)), "not a polygon hull"),
        # 2 Delta sheared and translated, with a wrong interior count
        (1, ((1, 0), (3, 0), (3, 2)), "not in canonical form"),
        # the canonical unit square, width 1, under a header of one interior point
        (1, ((-1, 1), (0, 0), (1, 0), (0, 1)), "0 interior points, header says 1"),
    ],
)
def test_validation_reports_the_first_failed_check(interior, verts, message):
    # the checks run in the order hull, canonical form, Pick interior, width
    with pytest.raises(CacheCorruptError, match=message):
        parse_census_file(_one_class_file(interior, verts))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=9),
    st.integers(0, 8),
    st.integers(1, 3),
    st.booleans(),
)
def test_hull_cycle_check_matches_the_monotone_chain(points, start, step, reverse):
    # a hull cycle visited from any start, at any stride, in either direction
    hull = _hull_cycle_2d(points)
    assume(len(hull) >= 3)
    order = [hull[(start + step * j) % len(hull)] for j in range(len(hull))]
    for seq in (tuple(points), tuple(order[::-1] if reverse else order)):
        is_hull = len(seq) >= 3 and _hull_cycle_2d(seq) == seq
        assert (_hull_pick_counts(seq) is not None) == is_hull


def test_validation_rejects_non_canonical_hulls():
    # the interior-0 class, translated and sheared
    with pytest.raises(CacheCorruptError, match="not in canonical form"):
        parse_census_file(_one_class_file(0, ((1, 0), (3, 0), (3, 2))))


def test_validation_rejects_a_cycle_below_every_image():
    # the interior-0 class translated left is smaller than all its images,
    # so none of them is larger and none equals it
    with pytest.raises(CacheCorruptError, match="not in canonical form"):
        parse_census_file(_one_class_file(0, ((-1, 0), (1, 0), (-1, 2))))


def test_validation_compares_past_the_lead_vertex():
    # a unimodular image of a golden class that agrees with it on the first
    # four vertices, stored in place of the class
    canon = ((-1, 1), (0, 0), (1, 0), (2, 1), (0, 2))
    image = ((-1, 1), (0, 0), (1, 0), (2, 1), (1, 2))
    assert canonical_form_2d(convex_hull(image).vertices, twice_area(image)) == canon
    text = (DEVCACHE / "interior_02.census").read_text()
    canon_line = "\n5 -1 1 0 0 1 0 2 1 0 2\n"
    assert text.count(canon_line) == 1
    with pytest.raises(CacheCorruptError, match="not in canonical form"):
        parse_census_file(text.replace(canon_line, "\n5 -1 1 0 0 1 0 2 1 1 2\n"))


def _assert_area_bounds_every_image(cycle) -> None:
    # the premise of the kernel's edge skip: every oracle image, anchored at
    # (0, 0) -> (g, 0) with top height H and least x, has H (g - least x) <= 2A
    area = twice_area(cycle)
    for xs, ys in _anchored_images(cycle):
        assert xs[0] == ys[0] == ys[1] == 0 and xs[1] > 0
        assert max(ys) * (xs[1] - min(xs)) <= area


def _anchored_cycles(cycle: tuple) -> set:
    """The 2v anchored images of a hull cycle, each from its lex-min vertex,
    built in full by the oracle."""
    cycles = set()
    for xs, ys in _anchored_images(cycle):
        image = list(zip(xs, ys))
        lead = image.index(min(image))
        cycles.add(tuple(image[lead:] + image[:lead]))
    return cycles


def test_canonical_check_accepts_exactly_the_canonical_image():
    # every anchored image of every golden class, stored as a cycle; the
    # images of an image are those of the class, so their least is the
    # canonical form of each
    for i in range(len(PUBLISHED_CLASS_COUNTS)):
        text = (DEVCACHE / f"interior_{i:02d}.census").read_text()
        for cls in parse_census_file(text).classes:
            images = _anchored_cycles(cls.vertices)
            assert min(images) == cls.vertices
            area = twice_area(cls.vertices)
            for image in images:
                assert _hull_cycle_2d(image) == image
                assert canonical_form_2d(image, area) == cls.vertices
                assert is_canonical_cycle_2d(image, area) == (image == cls.vertices)


def test_area_bounds_every_image_of_every_golden_class():
    for i in range(len(PUBLISHED_CLASS_COUNTS)):
        text = (DEVCACHE / f"interior_{i:02d}.census").read_text()
        for cls in parse_census_file(text).classes:
            _assert_area_bounds_every_image(cls.vertices)


_COORD = st.integers(-40, 40)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=16))
@example([(-3, -2), (5, 1), (0, 4)])  # a triangle
@example([(0, 0), (4, 0), (3, 2), (1, 2)])  # the top edge parallel to the bottom one
@example([(0, 0), (2, 0), (5, 3), (1, 3)])  # the same, the top edge reaching past the bottom one
@example([(0, 0), (6, 0), (1, 3)])  # an anchor edge of lattice length 6
@example([(-2, 1), (0, 0), (1, 0), (1, 2), (-2, 2)])  # least x on a vertical edge
@example([(-2, 3), (-1, 1), (0, 0), (1, 0), (2, 1), (2, 2), (1, 4), (0, 5), (-1, 5), (-2, 4)])  # 10-gon
# polygons with non-trivial automorphisms: images other than the identity tie with it
@example([(0, 0), (1, 0), (1, 1), (0, 1)])  # the unit square
@example([(0, 0), (2, 0), (0, 2)])  # 2 Delta
@example([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])  # the hexagon
def test_canonical_form_is_the_least_oracle_image(points):
    cycle = _hull_cycle_2d(points)
    assume(len(cycle) >= 3)
    images = _anchored_cycles(cycle)
    least = min(images)
    area = twice_area(cycle)
    for image in images | {cycle}:
        assert canonical_form_2d(image, area) == least
        assert is_canonical_cycle_2d(image, area) == (image == least)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=16))
@example([(0, 0), (6, 0), (1, 3)])  # an anchor edge of lattice length 6
@example([(-2, 1), (0, 0), (1, 0), (1, 2), (-2, 2)])  # least x on a vertical edge
def test_area_bounds_every_oracle_image(points):
    cycle = _hull_cycle_2d(points)
    assume(len(cycle) >= 3)
    _assert_area_bounds_every_image(cycle)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=16), st.integers(-90, 5))
@example([(0, 0), (4, 0), (3, 2), (1, 2)], 0)  # the top edge parallel to the anchor edge
@example([(0, 0), (3, 0), (0, 2)], 0)  # a vertical left edge into the forward image's anchor
@example([(0, 0), (3, 0), (3, 2)], 0)  # a vertical left edge out of the reversed image's anchor
# a vertical left edge off the anchor; the area bound skips edges 0 and 2
@example([(-2, 1), (0, 0), (1, 0), (1, 2), (-2, 2)], -2)
# non-trivial automorphisms, at the bound of the check: several images tie at x = 0
@example([(0, 0), (1, 0), (1, 1), (0, 1)], 0)  # the unit square
@example([(0, 0), (2, 0), (0, 2)], 0)  # 2 Delta
@example([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)], 0)  # the hexagon
# an interior-2 class: the area bound skips edge 3, and edges 2 and 4 each have an
# image tying at the bound
@example([(-1, 1), (0, 0), (1, 0), (2, 1), (0, 2)], -1)
def test_anchored_leads_describe_the_oracle_images(points, bound):
    # the kernel visits edge i's forward image, then its reversed one, for
    # i = 0..v-1; the oracle builds the forward images by start vertex and
    # the reversed ones along the reversed cycle, where edge i is start
    # v - 2 - i.  From each start bound, the yields are exactly the oracle
    # images in the kernel's order, each read from its lex-min vertex, that
    # the running rule keeps: least x at most the bound, which drops to each
    # kept least x, whether or not the doubled area lets it skip whole edges
    cycle = _hull_cycle_2d(points)
    assume(len(cycle) >= 3)
    m = len(cycle)
    oracle = []
    for xs, ys in _anchored_images(cycle):
        image = list(zip(xs, ys))
        lead = image.index(min(image))
        oracle.append(tuple(image[lead:] + image[:lead]))
    ordered = []
    for i in range(m):
        ordered += [oracle[i], oracle[m + (m - 2 - i) % m]]
    area = twice_area(cycle)
    for start in {bound} | {image[0][0] for image in ordered}:
        kept, b = [], start
        for image in ordered:
            if image[0][0] <= b:
                kept.append(image)
                b = image[0][0]
        built = []
        for low, lead, step, A, B, C, D, E, F in _anchored_leads(cycle, area, start):
            seq = [cycle[(lead + k * step) % m] for k in range(m)]
            image = tuple((A * x + B * y + C, D * x + E * y + F) for x, y in seq)
            assert image[0] == min(image) and image[0][0] == low
            built.append(image)
        assert built == kept


def test_validation_rejects_width_one_polygons():
    canon = canonical_form_2d(convex_hull([(0, 0), (3, 0), (1, 1), (0, 1)]).vertices, 4)
    with pytest.raises(CacheCorruptError, match="lattice width 1"):
        parse_census_file(_one_class_file(0, canon))


def test_validation_rejects_wrong_interior_header():
    # the hexagon's class has one interior point
    cycle = convex_hull(HEXAGON).vertices
    canon = canonical_form_2d(cycle, twice_area(cycle))
    assert parse_census_file(_one_class_file(1, canon)).classes[0].interior == 1
    for wrong in (0, 2):
        with pytest.raises(CacheCorruptError, match="1 interior points"):
            parse_census_file(_one_class_file(wrong, canon))


def _brute_force_width(cycle) -> int:
    # coordinates lie in [0, 4]: the optimal direction has width <= 4, and
    # any two independent vertex differences (entries at most 4 in size,
    # integer determinant at least 1) then confine it to |p|, |q| <= 32
    best = None
    for p in range(-32, 33):
        for q in range(0, 33):
            if gcd(p, q) != 1 or (q == 0 and p < 0):
                continue
            values = [p * x + q * y for x, y in cycle]
            width = max(values) - min(values)
            best = width if best is None else min(best, width)
    return best


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=9))
def test_pick_counts_and_width_match_brute_force(points):
    cycle = _hull_cycle_2d(points)
    assume(len(cycle) >= 3)
    poly = convex_hull(points)
    counts = census(poly)
    assert _hull_pick_counts(cycle) == (counts.interior, counts.boundary)
    assert lattice_width_2d(poly) == _brute_force_width(cycle)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=10))
@example([(1, 1), (3, 1), (3, 3)])  # 2 Delta, sheared and translated
@example([(0, 0), (3, 0), (0, 1)])  # width 1, no interior point, 3 vertices
def test_width_rule_matches_the_width_search(points):
    # width >= 2 exactly when there is an interior point or the class is 2 Delta
    cycle = _hull_cycle_2d(points)
    assume(len(cycle) >= 3)
    poly = convex_hull(points)
    interior, _ = _hull_pick_counts(cycle)
    width = lattice_width_2d(poly)
    area = twice_area(poly.vertices)
    if interior >= 1:
        assert width >= 2
    elif width >= 2:
        assert canonical_form_2d(poly.vertices, area) == ((0, 0), (2, 0), (0, 2))
    assert _has_width_two(interior, canonical_form_2d(poly.vertices, area)) == (width >= 2)


_FUZZ_FILES = ("interior_02.census", "interior_03.census")
_HEADER_VALUES_RE = re.compile(r"polygon-census v1 interior=\d+ box=(\d+) complete=(\d)\n")


# spellings of a class-line number that int() reads and render never writes
_SPELLINGS = ("+{}", "0_{}", "0{}", "{}\r")
_CLASS_NUMBER_RE = re.compile(r"(?<![^ \n])-?[0-9]+(?![^ \n])")


def _mutate(text: str, kind: str, where: int, digit: int) -> tuple[str, bool]:
    """(mutated text, whether the mutation flipped the box= or complete= value)."""
    if kind == "respell":
        numbers = list(_CLASS_NUMBER_RE.finditer(text))
        m = numbers[where % len(numbers)]
        spelled = _SPELLINGS[digit % len(_SPELLINGS)].format(m.group())
        return text[: m.start()] + spelled + text[m.end():], False
    if kind == "cut":
        return text[: where % len(text)], False
    if kind == "duplicate":
        lines = text.splitlines(keepends=True)
        j = where % len(lines)
        return "".join(lines[: j + 1] + lines[j:]), False
    positions = [j for j, ch in enumerate(text) if ch.isdigit()]
    j = positions[where % len(positions)]
    new = str(digit) if str(digit) != text[j] else str((digit + 1) % 10)
    header = _HEADER_VALUES_RE.match(text)
    in_value = header.start(1) <= j < header.end(1) or j == header.start(2)
    return text[:j] + new + text[j + 1:], in_value


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(_FUZZ_FILES),
    st.sampled_from(("cut", "flip", "duplicate", "respell")),
    st.integers(0, 10**6),
    st.integers(0, 9),
)
@example("interior_02.census", "flip", 2, 0)  # box=26 -> box=06
@example("interior_02.census", "flip", 4, 0)  # complete=1 -> complete=0
@example("interior_03.census", "cut", 0, 0)  # the empty file
@example("interior_02.census", "respell", 6, 0)  # 3 0 0 1 0 2 +5
@example("interior_02.census", "respell", 6, 1)  # 3 0 0 1 0 2 0_5
@example("interior_02.census", "respell", 6, 2)  # 3 0 0 1 0 2 05
@example("interior_02.census", "respell", 6, 3)  # 3 0 0 1 0 2 5\r
def test_mutated_golden_files_are_rejected(name, kind, where, digit):
    # a complete file already holds every valid class, so a class line
    # that still validates after a flip repeats another and fails the
    # distinctness check
    mutated, in_header_value = _mutate((DEVCACHE / name).read_text(), kind, where, digit)
    try:
        file = parse_census_file(mutated)
    except CacheCorruptError:
        return
    assert in_header_value, "a mutated census file parsed"
    assert file.render() == mutated


@pytest.mark.parametrize("spelling", _SPELLINGS)
def test_class_lines_are_spelled_as_render_writes_them(spelling):
    text = (DEVCACHE / "interior_02.census").read_text()
    assert text.count("\n3 0 0 1 0 2 5\n") == 1
    line = "3 0 0 1 0 2 " + spelling.format(5)
    with pytest.raises(CacheCorruptError, match=re.escape(f"malformed census line: {line!r}")):
        parse_census_file(text.replace("\n3 0 0 1 0 2 5\n", f"\n{line}\n"))


def test_golden_cache_validates_and_matches_the_box_scan():
    store = CensusStore(DEVCACHE)
    for i, expected in enumerate(PUBLISHED_CLASS_COUNTS):
        file = store.load(i)
        assert len(file.classes) == expected
        assert file.render() == store.path(i).read_text(encoding="ascii")
        for cls in file.classes:
            counts = box_census(convex_hull(cls.vertices))
            assert (cls.interior, cls.boundary) == counts[3:]


# ---------------------------------------------------------------------------
# width-1 family and the counting profile


def test_width1_family_counts():
    for k in (0, 1, 2, 7):
        witness = width1_trapezoid(k)
        counts = census(convex_hull(witness.vertices))
        assert counts.vertex == 4 and counts.nonvertex == k
        assert witness.nonvertex == k


def test_g_profile_small_values(small_cache):
    # g(k) is decided by the files 0..k alone
    values = [c_z2_profile(k, small_cache).g[k] for k in range(6)]
    assert values == [4, 6, 6, 6, 8, 7]


def test_g_witnesses_attain_their_counts(small_cache):
    for k in range(6):
        profile = c_z2_profile(k, small_cache)
        value, witness = profile.g[k], profile.witnesses[k]
        counts = census(convex_hull(witness))
        assert counts.vertex == value and counts.nonvertex == k


def test_profile_recursion_and_drops(small_cache):
    profile = c_z2_profile(5, small_cache)
    assert profile.g == (4, 6, 6, 6, 8, 7)
    assert profile.c == (4, 6, 6, 6, 8, 7)
    assert profile.drops == (5,)
    assert profile.k_max == 5 and len(profile.witnesses) == 6
    assert not profile.findings


def test_profile_requires_complete_cache(small_cache):
    with pytest.raises(CacheIncompleteError):
        c_z2_profile(9, small_cache)
    with pytest.raises(CacheIncompleteError):
        c_z2_profile(6, small_cache)


@pytest.fixture(scope="module")
def golden_profile():
    return c_z2_profile(10, CensusStore(DEVCACHE))


def test_golden_profile_is_the_planar_table(golden_profile):
    assert golden_profile.g == PLANAR_TABLE
    assert golden_profile.c == PLANAR_TABLE
    assert not golden_profile.findings


def test_golden_profile_c_matches_the_unrolled_recursion(golden_profile):
    assert golden_profile.c == unrolled_c(golden_profile.g, 10, 10)


def test_golden_witnesses_match_a_brute_force_pick(golden_profile):
    store = CensusStore(DEVCACHE)
    classes = [cls for i in range(11) for cls in store.load(i).classes]
    for k, witness in enumerate(golden_profile.witnesses):
        at_k = [cls for cls in classes if cls.nonvertex == k]
        most = max((cls.vertex_count for cls in at_k), default=0)
        if most >= 4:
            expected = min((cls for cls in at_k if cls.vertex_count == most), key=lambda c: c.key())
        else:
            expected = width1_trapezoid(k)
        assert witness == expected.vertices
        assert golden_profile.g[k] == max(most, 4)


# ---------------------------------------------------------------------------
# maximality membership


def test_square_is_maximal_for_one_interior_point():
    square = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    report = maximal_membership(square, 1)
    assert report.is_member
    assert report.interior_count == 1 and report.facet_count == 4
    assert strict_interior_cell_scan(_hull_cycle_2d(square)) == ((0, 0),)


def test_hexagon_is_not_maximal():
    report = maximal_membership(HEXAGON, 1)
    assert not report.is_member
    assert report.interior_count == 1
    assert len(report.facets_missing_lattice_point) == 6


def test_triangle_membership():
    report = maximal_membership([(-1, -1), (2, -1), (-1, 2)], 1)
    assert report.is_member and report.facet_count == 3
    # halved, the triangle keeps only (0, 0) strictly inside and no
    # lattice point inside its edges
    report = maximal_membership([(-1, -1), (2, -1), (-1, 2)], 1, 2)
    assert report.interior_count == 1 and report.facet_count == 3
    assert report.facets_missing_lattice_point == (0, 1, 2)


def test_membership_validates_input():
    with pytest.raises(ValueError):
        maximal_membership([(1, 1), (-1, 1), (-1, -1), (1, -1)], 0)
    with pytest.raises(DegenerateInputError):
        maximal_membership([(0, 0), (1, 0)], 1)
    with pytest.raises(ValueError):
        maximal_membership([(1, 1), (-1, 1), (-1, -1), (1, -1)], 1, 0)


def test_membership_scan_budget():
    big = [(0, 0), (3000, 0), (3000, 3000), (0, 3000)]
    with pytest.raises(BudgetExceededError):
        maximal_membership(big, 1)


_RATIONAL = st.fractions(-8, 8, max_denominator=7)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_RATIONAL, _RATIONAL), min_size=3, max_size=8))
def test_strict_interior_points_match_cell_scan(points):
    scale = lcm(*(c.denominator for p in points for c in p))
    cycle = _hull_cycle_2d([(int(x * scale), int(y * scale)) for x, y in points])
    assume(len(cycle) >= 3)
    rational = [(Fraction(x, scale), Fraction(y, scale)) for x, y in cycle]
    assert _strict_interior_lattice_points(cycle, scale) == strict_interior_cell_scan(rational)


@settings(max_examples=300, deadline=None)
@given(_RATIONAL, _RATIONAL, _RATIONAL, _RATIONAL)
@example(Fraction(0), Fraction(0), Fraction(2), Fraction(0))
@example(Fraction(0), Fraction(0), Fraction(1), Fraction(0))
@example(Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(3, 2))
@example(Fraction(-7, 3), Fraction(5, 2), Fraction(8), Fraction(-1, 2))
def test_edge_lattice_point_matches_fraction_oracle(ax, ay, bx, by):
    assume((ax, ay) != (bx, by))
    scale = lcm(ax.denominator, ay.denominator, bx.denominator, by.denominator)
    A = (int(ax * scale), int(ay * scale))
    B = (int(bx * scale), int(by * scale))
    found = _edge_relint_lattice_point(A, B, scale)
    assert (found is None) == (edge_relint_lattice_point((ax, ay), (bx, by)) is None)
    if found is not None:
        # on the segment's line, strictly between its ends
        dx, dy = B[0] - A[0], B[1] - A[1]
        px, py = scale * found[0] - A[0], scale * found[1] - A[1]
        assert dx * py == dy * px
        assert 0 < dx * px + dy * py < dx * dx + dy * dy


# ---------------------------------------------------------------------------
# expansion to maximal supersets


def _facet_cycle(facets) -> list:
    """The points where consecutive facets (normal, offset) meet, in Fractions."""
    cycle = []
    for ((ax, ay), ga), ((bx, by), gb) in zip(facets, facets[1:] + facets[:1]):
        det = ax * by - ay * bx
        cycle.append((Fraction(ga * by - gb * ay, det), Fraction(ax * gb - bx * ga, det)))
    return cycle


def test_hexagon_expands_to_a_maximal_hexagon():
    result = expand_to_maximal(convex_hull(HEXAGON), 1)
    assert len(result.facets) == 6
    assert result.report.is_member
    assert strict_interior_cell_scan(_facet_cycle(result.facets)) == ((0, 0),)
    # every input vertex sits on its facet
    for ((nx, ny), offset), (ax, ay) in zip(result.facets, convex_hull(HEXAGON).vertices):
        assert nx * ax + ny * ay == offset


def _assert_facets_support_their_cycle(facets):
    cycle = _facet_cycle(facets)
    m = len(cycle)
    for t, ((nx, ny), offset) in enumerate(facets):
        (ox, oy), (px, py), (qx, qy) = cycle[t - 1], cycle[t], cycle[(t + 1) % m]
        # facet t holds the points it shares with facets t - 1 and t + 1
        assert nx * ox + ny * oy == offset
        assert nx * px + ny * py == offset
        assert all(nx * x + ny * y <= offset for x, y in cycle)
        # and the cycle turns strictly left at each point
        assert (px - ox) * (qy - py) - (py - oy) * (qx - px) > 0


def test_expansion_facets_support_the_vertex_cycle():
    _assert_facets_support_their_cycle(expand_to_maximal(convex_hull(HEXAGON), 1).facets)


def test_thin_triangle_restores_the_fan_by_doubling_every_weight():
    # with every mu = 1, two consecutive seed normals do not turn left, so
    # the fan loop doubles every weight before any stray point is cut
    triangle = convex_hull([(0, 0), (3, 0), (0, 1)])
    normals = [normal for normal, _ in _edge_facets(triangle.vertices)]
    seed = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(normals[-1:] + normals[:-1], normals)]
    assert min(a[0] * b[1] - a[1] * b[0] for a, b in zip(seed, seed[1:] + seed[:1])) <= 0
    result = expand_to_maximal(triangle, 2)
    assert result.rounds > 0
    assert len(result.facets) == 3 and result.report.is_member
    assert result.report.facet_count == 3
    _assert_facets_support_their_cycle(result.facets)


def test_skewed_triangle_needs_weight_doubling():
    # 4 interior + 3 boundary nonvertex points; the seed fan already turns
    # left, and each round doubles one weight to cut a stray lattice point
    triangle = convex_hull([(0, 0), (2, 0), (4, 6)])
    result = expand_to_maximal(triangle, 7)
    assert result.rounds > 0
    assert len(result.facets) == 3 and result.report.is_member
    assert result.report.facet_count == 3
    assert result.report.interior_count == 7


def test_expansion_matches_profile_counts(small_cache):
    # the expanded census witness realises the Helly count as a facet count
    profile = c_z2_profile(5, small_cache)
    for k in range(1, 6):
        result = expand_to_maximal(convex_hull(profile.witnesses[k]), k)
        assert len(result.facets) == result.report.facet_count == profile.c[k], k


def test_expansion_validates_input():
    message = "^polygon has 1 non-vertex points, expansion asked for 2$"
    with pytest.raises(ValueError, match=message):
        expand_to_maximal(convex_hull(HEXAGON), 2)
    with pytest.raises(ValueError):
        expand_to_maximal(convex_hull(HEXAGON), 0)
    with pytest.raises(DegenerateInputError):
        expand_to_maximal(convex_hull([(0, 0), (4, 0)]), 1)


# the two triangles above, each of which needs rounds of weight doubling
THIN_TRIANGLE = ([(0, 0), (3, 0), (0, 1)], 2)
SKEWED_TRIANGLE = ([(0, 0), (2, 0), (4, 6)], 7)


@pytest.mark.parametrize(
    "triangle, message",
    [
        (
            THIN_TRIANGLE,
            "^expansion weights grew past the guard while restoring the facet normal fan$",
        ),
        (SKEWED_TRIANGLE, r"^expansion still has stray lattice points after 1 rounds: \["),
    ],
)
def test_expansion_past_the_round_guard_fails_loudly(monkeypatch, triangle, message):
    points, k = triangle
    monkeypatch.setattr(census_module, "_EXPAND_OP_GUARD", 0)
    with pytest.raises(GuardRadiusError, match=message):
        expand_to_maximal(convex_hull(points), k)


def test_expansion_past_the_scan_budget_fails_loudly(monkeypatch):
    monkeypatch.setattr(census_module, "_SCAN_BUDGET", 4)
    points, k = SKEWED_TRIANGLE
    message = "^expansion escaped the guard region after 0 rounds: lattice scan over "
    with pytest.raises(GuardRadiusError, match=message):
        expand_to_maximal(convex_hull(points), k)
    message = "^lattice scan over 9 cells exceeds the budget 4$"
    with pytest.raises(BudgetExceededError, match=message):
        maximal_membership([(0, 0), (4, 0), (0, 4)], 3)


def test_expansion_is_deterministic():
    first = expand_to_maximal(convex_hull(HEXAGON), 1)
    second = expand_to_maximal(convex_hull(HEXAGON), 1)
    assert first == second


def _random_unimodular_image(rng, points):
    # compose row shears (det 1) and an optional row swap (det -1),
    # then translate
    rows = ((1, 0), (0, 1))
    for _ in range(4):
        shear = rng.randint(-3, 3)
        if rng.random() < 0.5:
            rows = (
                (rows[0][0] + shear * rows[1][0], rows[0][1] + shear * rows[1][1]),
                rows[1],
            )
        else:
            rows = (
                rows[0],
                (rows[1][0] + shear * rows[0][0], rows[1][1] + shear * rows[0][1]),
            )
    if rng.random() < 0.5:
        rows = (rows[1], rows[0])
    tx, ty = rng.randint(-9, 9), rng.randint(-9, 9)
    return [
        (rows[0][0] * x + rows[0][1] * y + tx, rows[1][0] * x + rows[1][1] * y + ty)
        for x, y in points
    ]


def test_cached_classes_absorb_unimodular_images(small_cache):
    # random lattice-symmetry images of cached classes canonicalise back
    rng = random.Random(60601)
    classes = small_cache.load(2).classes
    for _ in range(40):
        cls = rng.choice(classes)
        image = _random_unimodular_image(rng, cls.vertices)
        cycle = convex_hull(image).vertices
        assert canonical_form_2d(cycle, twice_area(cycle)) == cls.vertices


# ---------------------------------------------------------------------------
# record contract


def test_records_refuse_assignment_check_their_counts_and_pickle():
    classes = [cls for bucket in enumerate_polygon_classes(3).values() for cls in bucket]
    for record, field in [
        (classes[0], "interior"),
        (convex_hull([(0, 0), (2, 0), (0, 1)]), "vertices"),
        (FiniteSite.grid(2, 2), "points"),
        (Enclosure(Fraction(1), Fraction(2)), "lo"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    # the worker processes of a threaded census build return classes by pickle
    copies = pickle.loads(pickle.dumps(classes))
    assert copies == classes and {type(cls) for cls in copies} == {type(classes[0])}


@pytest.mark.parametrize(
    "make",
    [
        lambda: census(convex_hull([(0, 0), (2, 0), (0, 2)])),
        lambda: convex_hull([(0, 0), (2, 0), (0, 1)]),
        lambda: convex_hull([(0, 0, 0), (2, 0, 2), (0, 2, 2)]),
        lambda: FiniteSite.grid(2, 2),
        lambda: Enclosure(Fraction(1), Fraction(2)),
        lambda: tight_recipe(3, 1),
    ],
    ids=[
        "PointCensus",
        "LatticePolytope",
        "LatticePolytope-flat",
        "FiniteSite",
        "Enclosure",
        "ConstructionRecipe",
    ],
)
def test_named_records_survive_copy_and_pickle_and_refuse_assignment(make):
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])


def test_site_pickles_to_the_same_bytes_after_a_profile():
    # a site holds only its points and dimension: profiling it caches nothing in it
    site = FiniteSite.grid(2, 2, 2)
    before = pickle.dumps(site)
    g_profile(site)
    assert pickle.dumps(site) == before


def test_profiles_survive_copy_and_pickle_and_refuse_assignment(small_cache):
    # the site and the planar profile are one NamedTuple, Z^2's with its drops
    for profile in (g_profile(FiniteSite.grid(2, 2), 2), c_z2_profile(5, small_cache)):
        for twin in (copy.copy(profile), copy.deepcopy(profile), pickle.loads(pickle.dumps(profile))):
            assert type(twin) is Profile and twin == profile
        with pytest.raises(AttributeError):
            profile.label = "other"
