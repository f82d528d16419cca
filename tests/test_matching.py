"""Cross-edge laws, their enumeration gate, and the g-table cache."""

import io
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from annealed_ising import (
    F_beta,
    LogG,
    ScalingLimit,
    SpinLaw,
    critical_beta,
    log_g_table,
    matching,
    pairing_law_exact,
    scaling_limit,
    spin_law,
    table_identities,
)
from annealed_ising.matching import cache_path
from pairing_laws import brute_force_law, cross_count_law


# ---------------------------------------------------------------------------
# exact laws


@pytest.mark.parametrize(
    "k,m,expected",
    [
        (1, 2, {1: 1.0}),
        (2, 4, {0: 1.0 / 3.0, 2: 2.0 / 3.0}),
        (3, 6, {1: 0.6, 3: 0.4}),
        (0, 8, {0: 1.0}),
        (8, 8, {0: 1.0}),
    ],
)
def test_hand_counted_laws(k, m, expected):
    law = cross_count_law(k, m)
    assert set(law) == set(expected)
    for x, p in expected.items():
        assert law[x] == pytest.approx(p, abs=1e-14)


def test_law_is_a_probability_measure():
    for k, m in [(5, 20), (17, 40), (30, 60)]:
        law = cross_count_law(k, m)
        assert all(p > 0 for p in law.values())
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        # support has the parity of k: unpaired marked points must cross
        assert all(x % 2 == k % 2 for x in law)


def test_law_input_validation():
    with pytest.raises(ValueError):
        cross_count_law(1, 3)  # odd point count
    with pytest.raises(ValueError):
        cross_count_law(5, 4)  # k outside 0..m
    with pytest.raises(ValueError):
        brute_force_law(4, 16)  # enumeration capped at m=14


def test_transform_decreases_in_beta():
    law = cross_count_law(3, 6)
    gs = [sum(p * math.exp(-2.0 * b * x) for x, p in law.items()) for b in (0.0, 0.3, 0.7)]
    assert gs[0] == pytest.approx(1.0, abs=1e-15)
    assert gs[0] > gs[1] > gs[2] > 0.0


def _dfact(o):
    return math.prod(range(o, 0, -2))  # o!! for odd o >= -1, with (-1)!! = 1


def test_enumerated_law_is_the_exact_count_ratio():
    # every probability is the correctly rounded count / (m-1)!!, count from the closed form
    for m in range(0, 13, 2):
        for k in range(m + 1):
            want = {
                x: math.comb(k, x)
                * math.comb(m - k, x)
                * math.factorial(x)
                * _dfact(k - x - 1)
                * _dfact(m - k - x - 1)
                / _dfact(m - 1)
                for x in range(k & 1, min(k, m - k) + 1, 2)
            }
            assert brute_force_law(k, m) == want, (k, m)


def test_pairing_law_gate_catches_one_planted_count(monkeypatch):
    counts = matching._cross_counts

    def planted(m):
        rows = [list(row) for row in counts(m)]
        if m == 8:
            rows[3][1] += 1  # one matching too many with X(3, 8) = 1
        return tuple(map(tuple, rows))

    monkeypatch.setattr(matching, "_cross_counts", planted)
    rep = pairing_law_exact()
    assert rep["pass"] is False
    assert rep["estimates"]["count_mismatches"] == 1


def test_pairing_law_gate_catches_an_integer_formula_off_by_one(monkeypatch):
    closed = matching._closed_count

    def planted(k, m, x):
        return closed(k, m, x) + ((k, m, x) == (5, 12, 3))

    monkeypatch.setattr(matching, "_closed_count", planted)
    rep = pairing_law_exact()
    assert rep["estimates"]["count_mismatches"] == 1
    assert rep["pass"] is False


def test_enumeration_memo_cannot_be_altered_by_a_caller():
    law = brute_force_law(3, 8)
    law[1] = 0.0
    assert brute_force_law(3, 8) == {1: 45 / 105, 3: 60 / 105}


# ---------------------------------------------------------------------------
# tables


def test_table_closed_forms_and_symmetry():
    beta = 0.37
    # d=1, n=2: the single pair either crosses (j=1) or the split is trivial
    t = log_g_table(1, 2, beta)
    assert t.values[0] == 0.0 and t.values[2] == 0.0
    assert t.values[1] == pytest.approx(-2.0 * beta, abs=1e-12)

    # d=2, n=2: X(2,4) has the 1/3, 2/3 law
    t = log_g_table(2, 2, beta)
    assert t.values[1] == pytest.approx(
        math.log(1.0 / 3.0 + 2.0 / 3.0 * math.exp(-4.0 * beta)), abs=1e-12
    )

    # beta=0: every weight is 1
    t = log_g_table(3, 40, 0.0)
    assert np.max(np.abs(t.values)) <= 1e-10

    t = log_g_table(3, 50, beta)
    assert t.values[0] == 0.0 and t.values[50] == 0.0
    assert np.all(t.values <= 0.0)
    assert np.array_equal(t.values, t.values[::-1])  # mirror fill is exact


def test_table_identities_gate_catches_a_nonzero_free_table(monkeypatch):
    # at beta = 0 every weight is exactly 1, so one log-weight of -1e-12 must turn the check red
    real = matching.log_g_table

    def planted(d, n, beta, cache_dir=None):
        table = real(d, n, beta, cache_dir=cache_dir)
        if beta != 0.0:
            return table
        values = table.values.copy()
        values[n // 2] = -1e-12
        return matching.LogG(d, n, beta, values)

    assert table_identities()["pass"] is True
    monkeypatch.setattr(matching, "log_g_table", planted)
    rep = table_identities()
    assert rep["estimates"]["free_case_max"] == 1e-12
    assert rep["pass"] is False


def test_table_identities_prints_the_tolerance_each_verdict_reads():
    # the free table and the pinned ends are exact; a printed 1e-12 would allow the gap above
    rep = table_identities()
    tol = {"closed_form_gap": 1e-12, "free_case_max": 0.0, "symmetry_gap": 1e-12, "endpoint_values": 0.0}
    assert rep["tolerances"] == tol
    assert all(rep["estimates"][k] <= tol[k] for k in tol) and rep["pass"] is True


def test_table_input_validation():
    with pytest.raises(ValueError):
        log_g_table(3, 33, 0.5)  # d*n odd
    with pytest.raises(ValueError):
        log_g_table(3, 0, 0.5)
    with pytest.raises(ValueError):
        log_g_table(0, 10, 0.5)
    with pytest.raises(ValueError):
        log_g_table(3, 10, -0.1)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_table_rejects_a_non_finite_beta(beta):
    # nan < 0 is False, so a sign check alone lets nan through to the fill
    with pytest.raises(ValueError):
        log_g_table(3, 4, beta)


def test_table_matches_the_exact_law_rowwise():
    # values[j] must equal log E[exp(-2 beta X(dj, dn))] from the closed law
    d, n, beta = 3, 4, 0.45
    t = log_g_table(d, n, beta)
    for j in range(n + 1):
        law = cross_count_law(d * j, d * n)
        g = sum(p * math.exp(-2.0 * beta * x) for x, p in law.items())
        assert t.values[j] == pytest.approx(math.log(g), abs=1e-11), j


def test_residuals_against_integral_stay_lipschitz():
    """log g(dj, dn) - n d F(j/n) has uniformly bounded slope in j/n.

    The normalized two-point slope max_{i<j} |r_j - r_i| n / (j - i) grows
    toward a finite sup as the grid refines; pin the bound and the
    saturation (shrinking increments), measured 3.02 / 3.44 / 3.70 / 3.85.
    """
    d, beta = 3, 0.55
    qs = []
    for n in (50, 100, 200, 400):
        t = log_g_table(d, n, beta)
        r = np.array([t.values[j] - n * d * F_beta(j / n, beta) for j in range(n + 1)])
        jj = np.arange(n + 1, dtype=np.float64)
        sep = np.abs(jj[:, None] - jj[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.abs(r[:, None] - r[None, :]) * n / sep
        q[sep == 0] = 0.0
        qs.append(float(np.max(q)))
    assert all(q < 4.5 for q in qs), qs
    inc = [qs[i + 1] - qs[i] for i in range(3)]
    assert inc[0] > inc[1] > inc[2] > 0.0, qs


# ---------------------------------------------------------------------------
# cache

_HEAD = [("d", "<i8"), ("n", "<i8"), ("beta", "<f8")]
_D, _N, _BETA = 3, 20, 0.3  # the table the corruption cases start from


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, allow_pickle=False)
    return buf.getvalue()


def _npy_record(d, n, beta, values) -> bytes:
    """The .npy file earlier versions cached: one numpy record of d, n, beta, values."""
    return _npy(np.array((d, n, beta, values), dtype=[*_HEAD, ("values", "<f8", values.shape)]))


def _record_file(d, n, beta, values) -> bytes:
    """A cache file built from the stated format: the key (d, n, beta), then the values."""
    return struct.pack("<qqd", d, n, beta) + np.asarray(values, dtype="<f8").tobytes()


def test_cache_roundtrip_and_hit(tmp_path):
    d, n, beta = 3, 30, 0.41
    fresh = log_g_table(d, n, beta)
    t1 = log_g_table(d, n, beta, cache_dir=tmp_path)
    path = cache_path(tmp_path, d, n, beta)
    assert path.exists()
    assert path.name == "gtable_d3_n30_b0.41.bin"
    stamp = path.stat().st_mtime_ns
    t2 = log_g_table(d, n, beta, cache_dir=tmp_path)
    assert path.stat().st_mtime_ns == stamp  # reused, not rewritten
    assert np.array_equal(t1.values, fresh.values)
    # the record stores the doubles themselves, so the hit is exact
    assert np.array_equal(t2.values, fresh.values)


@pytest.mark.parametrize("beta", [0.2, 0.0])  # rows widen at 0.2; beta = 0 writes exact zeros
def test_cache_roundtrips_bitwise(tmp_path, beta):
    d, n = 3, 8000
    fresh = log_g_table(d, n, beta).values
    log_g_table(d, n, beta, cache_dir=tmp_path)
    path = cache_path(tmp_path, d, n, beta)
    assert path.read_bytes() == _record_file(d, n, beta, fresh)
    stamp = path.stat().st_mtime_ns
    hit = log_g_table(d, n, beta, cache_dir=tmp_path).values
    assert path.stat().st_mtime_ns == stamp  # served from the file
    assert np.array_equal(hit, fresh)
    assert np.array_equal(np.signbit(hit), np.signbit(fresh))


def test_table_values_are_read_only_on_a_miss_and_a_hit(tmp_path):
    miss = log_g_table(3, 20, 0.3, cache_dir=tmp_path).values
    hit = log_g_table(3, 20, 0.3, cache_dir=tmp_path).values
    uncached = log_g_table(3, 20, 0.3).values
    for values in (miss, hit, uncached):
        with pytest.raises(ValueError):
            values[1] = 0.0
    assert np.array_equal(hit, miss)


def test_cache_file_is_the_header_and_one_record(tmp_path):
    # the header is the 24-byte key, the record the n + 1 little-endian doubles
    d, n, beta = 3, 20, 0.3
    values = log_g_table(d, n, beta, cache_dir=tmp_path).values
    data = cache_path(tmp_path, d, n, beta).read_bytes()
    assert data == struct.pack("<qqd", d, n, beta) + values.astype("<f8").tobytes()
    assert len(data) == 24 + 8 * (n + 1)


def test_cache_rejects_corruption(tmp_path):
    d, n, beta = 3, 20, 0.3
    log_g_table(d, n, beta, cache_dir=tmp_path)
    path = cache_path(tmp_path, d, n, beta)
    path.write_text("not a table\n")
    t = log_g_table(d, n, beta, cache_dir=tmp_path)
    assert np.array_equal(t.values, log_g_table(d, n, beta).values)


def test_cache_keys_separate_betas(tmp_path):
    p1 = cache_path(tmp_path, 3, 10, 0.3)
    p2 = cache_path(tmp_path, 3, 10, 0.3 + 1e-10)
    assert p1 != p2


def test_cache_never_serves_a_neighbouring_beta(tmp_path):
    # betas that agree to 12 significant digits must not share a cache file
    bc = critical_beta(3)
    near = bc + 4e-13
    at_bc = log_g_table(3, 200, bc, cache_dir=tmp_path)
    t = log_g_table(3, 200, near, cache_dir=tmp_path)
    assert t.beta == near
    assert np.array_equal(t.values, log_g_table(3, 200, near).values)
    assert not np.array_equal(t.values, at_bc.values)


def test_cache_rejects_a_header_for_another_beta(tmp_path):
    d, n = 3, 20
    log_g_table(d, n, 0.3, cache_dir=tmp_path)
    path = cache_path(tmp_path, d, n, 0.4)
    path.write_bytes(cache_path(tmp_path, d, n, 0.3).read_bytes())  # a 0.3 table filed as 0.4
    fresh = log_g_table(d, n, 0.4).values
    assert np.array_equal(log_g_table(d, n, 0.4, cache_dir=tmp_path).values, fresh)
    assert struct.unpack_from("<qqd", path.read_bytes()) == (d, n, 0.4)  # rewritten


@pytest.mark.parametrize(
    "beta,claim",
    [
        (_BETA, (4, _N, _BETA)),
        (_BETA, (_D, _N + 2, _BETA)),
        (_BETA, (_D, _N, math.nextafter(_BETA, 1.0))),
        (0.0, (_D, _N, -0.0)),  # -0.0 == 0.0: beta is compared bitwise
    ],
    ids=["d", "n", "beta_ulp", "beta_negative_zero"],
)
def test_cache_rejects_a_record_naming_another_table(tmp_path, beta, claim):
    # the values have the requested length, so only the named (d, n, beta) is wrong
    fresh = log_g_table(_D, _N, beta, cache_dir=tmp_path).values
    path = cache_path(tmp_path, _D, _N, beta)
    good = path.read_bytes()
    path.write_bytes(_record_file(*claim, fresh))
    assert np.array_equal(log_g_table(_D, _N, beta, cache_dir=tmp_path).values, fresh)
    assert path.read_bytes() == good  # rewritten


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0.5"])
def test_cache_rejects_impossible_values(tmp_path, bad):
    d, n, beta = 3, 20, 0.3
    fresh = log_g_table(d, n, beta, cache_dir=tmp_path).values
    path = cache_path(tmp_path, d, n, beta)
    good = path.read_bytes()
    values = fresh.copy()
    values[4] = float(bad)
    path.write_bytes(_record_file(d, n, beta, values))
    assert np.array_equal(log_g_table(d, n, beta, cache_dir=tmp_path).values, fresh)
    assert path.read_bytes() == good


def test_cache_dir_expands_tilde():
    p = cache_path("~/some-cache", 3, 10, 0.3)
    assert "~" not in str(p)
    assert str(p).startswith(str(Path.home()))


def test_only_a_named_directory_caches_a_table(tmp_path, monkeypatch):
    # only cache_dir names a cache directory; the environment is not read
    monkeypatch.setenv("ANNEALED_ISING_CACHE", str(tmp_path / "env"))
    monkeypatch.chdir(tmp_path)
    assert cache_path(None, 3, 10, 0.3) is None
    log_g_table(3, 10, 0.3)
    assert list(tmp_path.iterdir()) == []
    log_g_table(3, 10, 0.3, cache_dir=tmp_path / "arg")
    assert [p.name for p in tmp_path.iterdir()] == ["arg"]
    assert cache_path(tmp_path / "arg", 3, 10, 0.3).exists()


def test_an_empty_cache_dir_is_refused_before_any_fill(tmp_path, monkeypatch):
    # os.path takes '' as the current directory, where the table used to land
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(matching, "gtable_values", lambda *args: pytest.fail("filled a table"))
    with pytest.raises(ValueError, match="cache_dir ''"):
        log_g_table(3, 10, 0.5, cache_dir="")
    with pytest.raises(ValueError, match="cache_dir ''"):
        cache_path("", 3, 10, 0.5)
    assert list(tmp_path.iterdir()) == []


# Each corruption maps the good file's bytes and values to the bytes written
# in its place.


def _drop_row(good, values):
    return _record_file(_D, _N, _BETA, values[:-1])  # n values filed under n


def _extra_row(good, values):
    return _record_file(_D, _N, _BETA, np.append(values, -1.5))  # n + 2 values


def _three_fields(good, values):
    return good + struct.pack("<d", -0.25)  # a third field after the key and the values


def _no_rows(good, values):
    return good[:24]  # the key alone


def _assert_rewritten(tmp_path, corrupt):
    fresh = log_g_table(_D, _N, _BETA).values
    log_g_table(_D, _N, _BETA, cache_dir=tmp_path)
    path = cache_path(tmp_path, _D, _N, _BETA)
    good = path.read_bytes()
    path.write_bytes(corrupt(good, fresh))
    assert path.read_bytes() != good
    assert np.array_equal(log_g_table(_D, _N, _BETA, cache_dir=tmp_path).values, fresh)
    assert path.read_bytes() == good  # rewritten from the fresh table


@pytest.mark.filterwarnings("error")  # rejecting a file is silent
@pytest.mark.parametrize("corrupt", [_drop_row, _extra_row, _three_fields, _no_rows])
def test_cache_rejects_a_body_that_is_not_rows_0_to_n(tmp_path, corrupt):
    # "rows" are the entries j = 0..n of the values
    _assert_rewritten(tmp_path, corrupt)


def _empty(good, values):
    return b""


def _truncated(good, values):
    return good[:-4]


def _trailing_bytes(good, values):
    # the file must be the key and values and nothing else, so a tail means rewrite
    return good + b"\x00"


def _plain_array(good, values):
    return values.astype("<f8").tobytes()  # right values, no key


def _record_in_an_array(good, values):
    return _npy_record(_D, _N, _BETA, values)  # the earlier .npy record under the new name


def _npz(good, values):
    buf = io.BytesIO()
    np.savez(buf, values=values)
    return buf.getvalue()


def _big_endian(good, values):
    # the right length; the key compare rejects it
    return struct.pack(">qqd", _D, _N, _BETA) + values.astype(">f8").tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "corrupt",
    [_empty, _truncated, _trailing_bytes, _plain_array, _record_in_an_array, _npz, _big_endian],
)
def test_cache_rejects_a_file_that_is_not_one_record(tmp_path, corrupt):
    _assert_rewritten(tmp_path, corrupt)


def test_an_earlier_npy_file_is_left_beside_the_new_one(tmp_path):
    # the .npy an earlier version wrote (here holding values 1e-11 off, as the
    # windowed fill's were) is never opened: the table is filled, written as
    # .bin, and the .npy keeps every byte
    fresh = log_g_table(_D, _N, _BETA).values
    old = tmp_path / f"gtable_d{_D}_n{_N}_b{_BETA!r}.npy"
    old.write_bytes(_npy_record(_D, _N, _BETA, fresh - 1e-11))
    before = old.read_bytes()
    assert np.array_equal(log_g_table(_D, _N, _BETA, cache_dir=tmp_path).values, fresh)
    path = cache_path(tmp_path, _D, _N, _BETA)
    assert path.read_bytes() == _record_file(_D, _N, _BETA, fresh)
    assert old.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([old.name, path.name])


def test_table_law_and_limit_are_read_only_records(get_table):
    table = get_table(3, 20, 0.3)
    law = spin_law(table, 0.1)
    limit = scaling_limit(3)
    records = [(table, LogG), (law, SpinLaw), (limit, ScalingLimit)]
    for rec, cls in records:
        assert isinstance(rec, cls)
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, 1.0)
        with pytest.raises(AttributeError):
            rec.extra = 1  # no instance dict either
