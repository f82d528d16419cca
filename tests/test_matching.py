"""Cross-edge laws, the Monte Carlo sampler, and the g-table cache."""

import io
import math
from pathlib import Path

import numpy as np
import pytest

from annealed_ising import (
    F_beta,
    brute_force_law,
    critical_beta,
    cross_count_law,
    log_g_table,
    sample_cross_count,
    sample_cross_counts,
)
from annealed_ising.matching import CACHE_ENV, _header, _record, cache_path


def law_mean_var(law):
    mean = sum(x * p for x, p in law.items())
    var = sum((x - mean) ** 2 * p for x, p in law.items())
    return mean, var


# ---------------------------------------------------------------------------
# exact laws


def test_closed_form_matches_enumeration_everywhere():
    for m in range(0, 13, 2):
        for k in range(0, m + 1):
            exact = brute_force_law(k, m)
            closed = cross_count_law(k, m)
            assert set(closed) == set(exact), (k, m)
            for x, p in exact.items():
                assert math.log(closed[x]) == pytest.approx(math.log(p), abs=1e-12), (k, m, x)


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


# ---------------------------------------------------------------------------
# sampler


def test_sampler_matches_law_moments():
    rng = np.random.default_rng(20260815)
    size = 50_000
    for k, m in [(4, 12), (7, 16), (12, 30)]:
        law = cross_count_law(k, m)
        mean, var = law_mean_var(law)
        draws = sample_cross_counts(k, m, size, rng)
        assert set(np.unique(draws)) <= set(law)
        z_mean = (draws.mean() - mean) / math.sqrt(var / size)
        assert abs(z_mean) < 4.0, (k, m, z_mean)
        # fourth-moment bound on the variance of the sample variance is loose;
        # a plain 6-sigma-ish cap on the relative error does the job here
        assert draws.var() == pytest.approx(var, rel=0.05), (k, m)


def test_sampler_scalar_and_seed_determinism():
    x = sample_cross_count(4, 12, rng=7)
    assert isinstance(x, int)
    assert x in cross_count_law(4, 12)
    a = sample_cross_counts(4, 12, 100, rng=7)
    b = sample_cross_counts(4, 12, 100, rng=7)
    assert np.array_equal(a, b)


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


def _record_file(d, n, beta, values) -> bytes:
    """A cache file built from the stated format: one record of d, n, beta, values."""
    return _npy(np.array((d, n, beta, values), dtype=[*_HEAD, ("values", "<f8", values.shape)]))


def test_cache_roundtrip_and_hit(tmp_path):
    d, n, beta = 3, 30, 0.41
    fresh = log_g_table(d, n, beta)
    t1 = log_g_table(d, n, beta, cache_dir=tmp_path)
    path = cache_path(tmp_path, d, n, beta)
    assert path.exists()
    assert path.name == "gtable_d3_n30_b0.41.npy"
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
    d, n, beta = 3, 20, 0.3
    values = log_g_table(d, n, beta, cache_dir=tmp_path).values
    record = np.array((d, n, beta, values), dtype=_record(n))
    assert cache_path(tmp_path, d, n, beta).read_bytes() == _header(n) + record.tobytes()
    assert _header(n) + record.tobytes() == _npy(record)  # what np.lib.format writes
    assert len(_header(n)) % 64 == 0  # so the record's doubles sit aligned


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
    assert np.load(path)["beta"] == 0.4  # rewritten


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


def test_cache_env_var_and_override(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert cache_path(None, 3, 10, 0.3) is None
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "env"))
    assert str(cache_path(None, 3, 10, 0.3)).startswith(str(tmp_path / "env"))
    # explicit directory wins over the environment
    assert str(cache_path(tmp_path / "arg", 3, 10, 0.3)).startswith(str(tmp_path / "arg"))
    log_g_table(3, 10, 0.3)  # no cache_dir argument: lands in the env directory
    assert cache_path(None, 3, 10, 0.3).exists()


# Each corruption maps the good file's bytes and values to the bytes written
# in its place.


def _drop_row(good, values):
    return _record_file(_D, _N, _BETA, values[:-1])  # n values filed under n


def _extra_row(good, values):
    return _record_file(_D, _N, _BETA, np.append(values, -1.5))  # n + 2 values


def _three_fields(good, values):
    dtype = [*_HEAD, ("values", "<f8", values.shape), ("extra", "<f8")]
    return _npy(np.array((_D, _N, _BETA, values, -0.25), dtype=dtype))


def _no_rows(good, values):
    return good[: -(24 + 8 * values.size)]  # the header alone


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
    # "rows" are the entries j = 0..n of the values field
    _assert_rewritten(tmp_path, corrupt)


def _npy_version_2(good, values):
    # a valid .npy of the right record, under a header the writer does not produce
    buf = io.BytesIO()
    record = np.array((_D, _N, _BETA, values), dtype=_record(_N))
    np.lib.format.write_array(buf, record, version=(2, 0), allow_pickle=False)
    return buf.getvalue()


def _padded_header(good, values):
    # the same header dict, padded by 64 more spaces: np.load reads it, the cache does not
    head = _header(_N)
    text = head[10:-1] + b" " * 64 + b"\n"
    return head[:8] + len(text).to_bytes(2, "little") + text + good[len(head) :]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("corrupt", [_npy_version_2, _padded_header])
def test_cache_serves_a_record_only_under_the_writers_header(tmp_path, corrupt):
    fresh = log_g_table(_D, _N, _BETA).values
    record = np.array((_D, _N, _BETA, fresh), dtype=_record(_N))
    good = _header(_N) + record.tobytes()
    assert np.load(io.BytesIO(corrupt(good, fresh))).tobytes() == record.tobytes()  # a valid .npy
    _assert_rewritten(tmp_path, corrupt)
    assert cache_path(tmp_path, _D, _N, _BETA).read_bytes() == good


def _empty(good, values):
    return b""


def _truncated(good, values):
    return good[:-4]


def _trailing_bytes(good, values):
    # the file must be the record and nothing else, so a tail means rewrite
    return good + b"\x00"


def _plain_array(good, values):
    return _npy(values)  # right values, no fields


def _record_in_an_array(good, values):
    dtype = [*_HEAD, ("values", "<f8", values.shape)]
    return _npy(np.array([(_D, _N, _BETA, values)], dtype=dtype))  # shape (1,), not ()


def _npz(good, values):
    buf = io.BytesIO()
    np.savez(buf, values=values)
    return buf.getvalue()


def _big_endian(good, values):
    dtype = [("d", ">i8"), ("n", ">i8"), ("beta", ">f8"), ("values", ">f8", values.shape)]
    return _npy(np.array((_D, _N, _BETA, values), dtype=dtype))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "corrupt",
    [_empty, _truncated, _trailing_bytes, _plain_array, _record_in_an_array, _npz, _big_endian],
)
def test_cache_rejects_a_file_that_is_not_one_record(tmp_path, corrupt):
    _assert_rewritten(tmp_path, corrupt)
