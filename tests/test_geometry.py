import random
from dataclasses import replace
from fractions import Fraction
from math import comb, isqrt

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pfgr import geometry, linalg, modq
from pfgr.fields import QQ, PrimeField, is_prime
from pfgr.geometry import (PfaffianModel, certify_model,
                           critical_equivalence_sweep, gaussian_binomial_2, grassmannian_census,
                           kernel_and_extend, maximal_isotropic,
                           normal_map_check, omega_rows, omegas, quadratic_form_matrix,
                           random_model, rank_census, rank_parity_sample,
                           sample_y1_points, sample_y2_points,
                           smoothness_sample, underlying_scheme_probe,
                           y1_membership, y2_kernels, y2_membership)

from oracles import (contraction_oracle, critical_test, grad_W, kernel_basis, mat_vec,
                     omega_field, omega_rank_walk, omega_stack_census, perfect_matchings,
                     principal_pfaffians, right_kernel, sample_y1_points_whole_batch,
                     sample_y2_points_whole_batch, upper_rows)


@pytest.fixture(scope="module")
def model():
    return random_model(1, d=7)


@pytest.fixture(scope="module")
def model5():
    return random_model(1, d=5)


@pytest.fixture(scope="module")
def model9():
    return random_model(1, d=9, census_qs=(2,))


# ---------------------------------------------------------------------------
# construction and certificates


def test_model_deterministic_in_seed():
    m1 = random_model(1, d=7)
    m2 = random_model(1, d=7)
    assert m1.A == m2.A


def test_model_independent_of_sampling_prime(model):
    assert random_model(1, q=1009).A == model.A


def test_sampler_exhaustion_is_not_retried(monkeypatch):
    """With a budget of exactly 5 q draws, which the up-front check admits
    for the five certificate points, the real Y1 sampler runs out at d = 5
    over F_100003 (the real rate is worse than q draws a point): its
    ValueError leaves random_model at the first A, since a new A would not
    help."""
    calls = []

    def counting_certify(*args, **kwargs):
        calls.append(args)
        return certify_model(*args, **kwargs)

    monkeypatch.setattr(geometry, "SAMPLER_MAX_TRIES", 5 * 100003)
    monkeypatch.setattr(geometry, "certify_model", counting_certify)
    with pytest.raises(ValueError, match="sampling_budget_Y1: the sampler found 4 of 5"):
        random_model(1, q=100003, d=5)  # its first A passes every census certificate
    assert len(calls) == 1


def test_sample_y1_points_refuses_a_base_point_without_a_plane(monkeypatch, model5):
    """With its full budget the sampler returns planes[i] through pool[i]:
    the plane meets K_p.  When one elimination of 4096 draws (a budget
    lowered to 1) leaves a base point without a plane, it raises ValueError
    instead of dropping the point and shifting the planes after it."""
    pool = sample_y2_points(model5, 20, seed=3)
    planes = sample_y1_points(model5, pool, seed=3)
    for K, x in zip(y2_kernels(model5, pool), planes):
        assert modq.batch_rank(np.concatenate([K, x]), 101)[0] < 5
    monkeypatch.setattr(geometry, "SAMPLER_MAX_TRIES", 1)
    with pytest.raises(ValueError, match=r"sampling_budget_Y1: the sampler found 1\d of 20 "):
        sample_y1_points(model5, pool, seed=3)


def test_sampler_refusal_counts_the_draws_made(monkeypatch, model5):
    """A refusal gives the draws the sampler made, not its budget: no batch
    begins past SAMPLER_MAX_TRIES draws, but a batch begun below it runs
    whole.  At a budget of 2,020 the Y1 sampler makes one round of 204 draws
    for each of 20 base points, 4,080 in all, and the Y2 sampler one batch
    of 4,096."""
    pool = sample_y2_points(model5, 20, seed=3)
    monkeypatch.setattr(geometry, "SAMPLER_MAX_TRIES", 2020)
    with pytest.raises(ValueError, match=r"sampling_budget_Y1: the sampler found 1\d of 20 "
                                         r"Y1 points over F_101 in its 4080 draws;"):
        sample_y1_points(model5, pool, seed=3)
    with pytest.raises(ValueError, match=r"sampling_budget_Y2: the sampler found \d+ of 500 "
                                         r"Y2 points over F_101 in its 4096 draws;"):
        sample_y2_points(model5, 500, seed=3)


@pytest.mark.parametrize("d", [5, 7, 9])
def test_sliced_samplers_match_whole_batch_elimination(request, d):
    """Eliminating ELIM_SLICE draws at a time, up to the slice that completes
    the sample, returns the points and planes of eliminating every draw of
    each batch: hits are taken in stream order, and each base point keeps
    its first hit."""
    model = request.getfixturevalue({5: "model5", 7: "model", 9: "model9"}[d])
    for seed in (1, 2, 3):
        for count in (1, 5, 100):
            pts = sample_y2_points(model, count, seed=seed)
            assert pts == sample_y2_points_whole_batch(model, count, seed=seed)
            assert (sample_y1_points(model, pts, seed=seed)
                    == sample_y1_points_whole_batch(model, pts, seed=seed))


def test_sliced_samplers_refuse_as_whole_batch_elimination(monkeypatch, model5):
    """Out of draws, each sampler gives the refusal of eliminating whole
    batches, word for word: the same hits and the same draws made."""
    pool = sample_y2_points(model5, 20, seed=3)
    monkeypatch.setattr(geometry, "SAMPLER_MAX_TRIES", 2020)
    for sampler, oracle, arg in ((sample_y1_points, sample_y1_points_whole_batch, pool),
                                 (sample_y2_points, sample_y2_points_whole_batch, 500)):
        with pytest.raises(ValueError) as got:
            sampler(model5, arg, seed=3)
        with pytest.raises(ValueError) as want:
            oracle(model5, arg, seed=3)
        assert str(got.value) == str(want.value)


def test_certificate_samplers_eliminate_only_the_draws_they_use(monkeypatch):
    """In random_model(1) at d = 7 the certificate's five Y2 points take one
    modq.rref call of at most one slice, 1,024 draws, and its five Y1 planes
    fewer than 2,048 rows: eliminating whole batches took 4,096 and 4,095."""
    rows = {}
    real = modq.rref

    def spy(mats, q):
        rows.setdefault(sys._getframe(1).f_code.co_name, []).append(len(mats))
        return real(mats, q)

    monkeypatch.setattr(modq, "rref", spy)
    random_model(1, d=7)
    y2, y1 = rows["sample_y2_points"], rows["sample_y1_points"]
    assert len(y2) == 1 and y2[0] <= 1024 and sum(y1) < 2048


def test_oversized_sampling_prime_is_refused_before_sampling(monkeypatch):
    """CERT_SAMPLES * q beyond SAMPLER_MAX_TRIES is refused up front: the
    samplers would give up after that many draws anyway."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return []

    monkeypatch.setattr(geometry, "sample_y2_points", spy)
    monkeypatch.setattr(geometry, "sample_y1_points", spy)
    assert 5 * 1000003 > geometry.SAMPLER_MAX_TRIES
    with pytest.raises(ValueError, match="draws"):
        random_model(1, q=1000003)
    with pytest.raises(ValueError, match="draws"):
        geometry.check_sampling_budget(geometry.SAMPLER_MAX_TRIES // 101 + 1, PrimeField(101))
    geometry.check_sampling_budget(geometry.SAMPLER_MAX_TRIES // 101, QQ)
    assert not calls


def test_zero_row_rejected():
    bad = tuple(tuple(0 for _ in range(21)) for _ in range(7))
    model = PfaffianModel(d=7, A=bad, seed=0, field=PrimeField(101))
    assert certify_model(model) == ("A_rank_drop_mod_2", {})


def test_degenerate_model_fails_certificates(model):
    # duplicate a row: the map is no longer surjective
    rows = [list(r) for r in model.A]
    rows[1] = rows[0]
    broken = PfaffianModel(d=7, A=tuple(tuple(r) for r in rows), seed=0,
                           field=PrimeField(101))
    assert certify_model(broken)[0] != ""


def test_model_requires_odd_dimension():
    with pytest.raises(ValueError):
        PfaffianModel(d=6, A=tuple(), seed=0, field=QQ)


def test_model_json_roundtrip(model):
    text = geometry.model_to_json(model)
    back = geometry.model_from_json(text)
    assert back.A == model.A and back.d == model.d and back.field == model.field


def test_model_carries_its_census(model, model5):
    """random_model keeps the strata certify_model ranked: equal to a fresh
    census for every certified prime, read-only, carried by a change of
    field, and left out of equality, repr and the JSON record."""
    for m in (model, model5):
        assert sorted(m.census) == [2, 3, 5]
        for q, strata in m.census.items():
            assert dict(strata) == rank_census(m, q)
    with pytest.raises(TypeError):
        model.census[2] = {}
    with pytest.raises(TypeError):
        model.census[2][6] = 0
    moved = replace(model, field=QQ)
    assert moved.census is model.census
    bare = PfaffianModel(d=7, A=model.A, seed=model.seed, field=model.field)
    assert bare.census is None and bare == model and hash(bare) == hash(model)
    assert repr(bare) == repr(model)
    assert geometry.model_to_json(bare) == geometry.model_to_json(model)


@pytest.mark.parametrize("d", [11, 13])
def test_random_model_refuses_d_11_and_up(monkeypatch, d):
    """From d = 11 on, P^(d-1) always meets the codimension-10 stratum
    {rank <= d - 5}: refused before any census is ranked."""
    ranked = []
    monkeypatch.setattr(geometry, "rank_census", lambda *args: ranked.append(args))
    with pytest.raises(ValueError, match="codimension C\\(5, 2\\) = 10"):
        random_model(1, d=d)
    assert not ranked


# ---------------------------------------------------------------------------
# the 2-form and its strata


def test_omega_antisymmetric_and_linear(model):
    """omegas is antisymmetric and linear in p mod q, a stack of points
    gives the stack of one-point matrices, and each equals the field oracle."""
    rng = random.Random(0)
    ps = [[rng.randrange(-200, 200) for _ in range(7)] for _ in range(2)]
    M, N = omegas(model, ps, 101)
    assert (M == -M.T % 101).all() and not M.diagonal().any()
    assert (omegas(model, [a + b for a, b in zip(*ps)], 101) == (M + N) % 101).all()
    assert (omegas(model, ps[0], 101) == M).all()
    assert M.tolist() == omega_field(model, ps[0])


def test_omega_rejects_zero_point(model):
    for p in ([0] * 7, [101] * 7):
        with pytest.raises(ValueError, match="nonzero"):
            y2_membership(model, p)
        with pytest.raises(ValueError, match="nonzero"):
            kernel_basis(model, p)


def test_generic_rank_and_membership(model):
    rng = random.Random(1)
    p = [rng.randrange(101) for _ in range(7)]
    rank, in_y2 = y2_membership(model, p)
    assert rank == 6 and not in_y2


def test_rank_census_small_fields(model):
    for q in (2, 3, 5):
        census = rank_census(model, q)
        assert sum(census.values()) == (q ** 7 - 1) // (q - 1)
        assert all(r % 2 == 0 for r in census)
        # the deep stratum is empty for a certified model
        assert sum(c for r, c in census.items() if r <= 2) == 0


@pytest.mark.parametrize("d, q", [(7, 2), (7, 3), (7, 5), (5, 13), (9, 3)])
def test_rank_census_matches_the_elimination_walk(request, d, q):
    """The Pfaffian census equals the walk that ranks every omega_p by
    elimination; the d = 9 model is certified at q = 2 only, and its
    q = 3 strata hold a rank-4 point, below d - 3."""
    m = request.getfixturevalue({5: "model5", 7: "model", 9: "model9"}[d])
    assert rank_census(m, q) == omega_rank_walk(m, q)


@pytest.mark.parametrize("census, ranker, q", [
    pytest.param(rank_census, "alternating_rank", 5, id="5"),
    pytest.param(rank_census, "alternating_rank", 11, id="11"),
    pytest.param(grassmannian_census, "batch_rank", 5, id="y1-5"),
    pytest.param(grassmannian_census, "batch_rank", 11, id="y1-11")])
def test_rank_census_walks_points_in_chunks(monkeypatch, model5, census, ranker, q):
    """Both censuses hand their ranking entry point (the Pfaffian route for
    omega_p, elimination for C_u) at most CENSUS_CHUNK points per call, the
    calls cover every point once, and the result equals one unchunked pass
    over every point (the default chunk holds all of them here)."""
    pts = modq.projective_points(5, q)
    assert len(pts) <= geometry.CENSUS_CHUNK
    whole = omega_rank_walk(model5, q) if census is rank_census else census(model5, q)
    sizes = []
    real = getattr(modq, ranker)

    def recording(stack, prime):
        # alternating_rank takes one row per entry, one column per point
        sizes.append(stack.shape[1] if ranker == "alternating_rank" else len(stack))
        return real(stack, prime)

    monkeypatch.setattr(geometry, "CENSUS_CHUNK", 1000)
    monkeypatch.setattr(modq, ranker, recording)
    assert census(model5, q) == whole
    assert max(sizes) <= 1000 and sum(sizes) == len(pts)


def test_oversized_census_is_refused_before_ranking(monkeypatch, model5):
    """A census of more than CENSUS_MAX_POINTS points raises before any rank
    or Pfaffian is taken; P^4(F_13), 30,941 points, is inside the bound."""
    census = rank_census(model5, 13)
    assert sum(census.values()) == (13 ** 5 - 1) // 12
    ranked = []
    for name in ("batch_rank", "alternating_rank", "pfaffians_vanish"):
        monkeypatch.setattr(modq, name, lambda mats, q, name=name: ranked.append(name))
    A = tuple(tuple(int(j == i) for j in range(comb(9, 2))) for i in range(9))
    model9 = PfaffianModel(d=9, A=A, seed=1, field=PrimeField(101))
    assert (11 ** 9 - 1) // 10 > geometry.CENSUS_MAX_POINTS
    with pytest.raises(ValueError, match="census bound"):
        rank_census(model9, 11)
    with pytest.raises(ValueError, match="census bound"):
        grassmannian_census(model9, 11)
    assert not ranked


def _alternating_stack(rng, d, q, n):
    """n alternating d x d residue matrices, each a sum of k wedges u ^ v
    with k drawn from 0..d // 2, so of rank at most 2k: deliberately
    rank-deficient, the zero matrix included."""
    k = rng.integers(0, d // 2 + 1, n)
    u, v = rng.integers(0, q, (2, n, d // 2, d))
    u = u * (np.arange(d // 2) < k[:, None])[..., None]
    return (np.einsum("nka,nkb->nab", u, v) - np.einsum("nka,nkb->nab", v, u)) % q


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7, 9]), st.sampled_from([2, 3, 5, 7, 101]),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_pfaffian_rank_route_matches_elimination(d, q, seed, from_model):
    """modq.alternating_rank and pfaffians_vanish agree with batch_rank's
    elimination on omega_p of a random integer model at random points, and
    on rank-deficient alternating stacks, characteristic 2 included."""
    rng = np.random.default_rng(seed)
    if from_model:
        A = tuple(tuple(row) for row in rng.integers(-9, 10, (d, comb(d, 2))).tolist())
        m = PfaffianModel(d=d, A=A, seed=0, field=PrimeField(101))
        pts = rng.integers(0, q, (200, d))
        mats = omegas(m, pts, q)
        # the rows read off p . A are the entries above the diagonal of omega_p
        assert (omega_rows(m, pts, q) == upper_rows(mats)).all()
    else:
        mats = _alternating_stack(rng, d, q, 200)
    expect = modq.batch_rank(mats, q)
    assert modq.alternating_rank(upper_rows(mats), q).tolist() == expect.tolist()
    assert modq.pfaffians_vanish(upper_rows(mats), q).tolist() == (expect < d - 1).tolist()


def test_pfaffian_route_refuses_primes_past_its_int64_bound():
    """(d - 1)(q - 1)^2 + q <= 2^63 bounds each unreduced expansion step and
    its reduction."""
    q = 1500000001  # prime, 2 (q - 1)^2 < 2^63 <= 8 (q - 1)^2
    with pytest.raises(ValueError, match="too large"):
        modq.alternating_rank(np.zeros((comb(9, 2), 1), dtype=np.int64), q)
    assert modq.alternating_rank(np.zeros((comb(3, 2), 1), dtype=np.int64), q).tolist() == [0]


@pytest.mark.parametrize("d", [5, 7, 9])
def test_rank_census_off_p_times_A_matches_the_omega_stack_route(d):
    """rank_census reads the entries above the diagonal off one product
    p . A per range and builds omega_p only where every Pfaffian vanishes;
    its strata equal those of the full omega stack route it replaced, at
    q = 2, 3 and 5, on a random integer A that is not certified, so strata
    below d - 3 may show."""
    m = PfaffianModel(d=d, A=geometry._random_A(random.Random(d), d), seed=0,
                      field=PrimeField(101))
    for q in (2, 3, 5):
        assert rank_census(m, q) == omega_stack_census(m, q)


def _principal_pfaffians_batch(model, omegas, q):
    """Principal sub-Pfaffians of an (N, d, d) stack of 2-forms over F_q, an
    (N, d) array: the oracle whose rows vanish exactly at rank <= d - 3."""
    d = model.d
    out = np.zeros((omegas.shape[0], d), dtype=np.int64)
    for i in range(d):
        for matching, sign in perfect_matchings(tuple(a for a in range(d) if a != i)):
            term = np.full(omegas.shape[0], sign, dtype=np.int64)
            for a, b in matching:
                term = (term * omegas[:, a, b]) % q
            out[:, i] = (out[:, i] + term) % q
    return out


def test_pfaffian_rank_consistency_exhaustive(model):
    """rank <= 4 iff every principal sub-Pfaffian vanishes, whole point set."""
    for q in (2, 3, 5):
        pts = modq.projective_points(7, q)
        Tq = model.tensor_mod(q)
        omegas = np.einsum("xi,iab->xab", pts, Tq) % q
        ranks = modq.batch_rank(omegas.copy(), q)
        pfs = _principal_pfaffians_batch(model, omegas, q)
        low = ranks <= 4
        vanish = (pfs == 0).all(axis=1)
        assert (low == vanish).all()


def test_pfaffian_batch_matches_pointwise(model):
    q = 3
    F = PrimeField(q)
    work = PfaffianModel(d=7, A=model.A, seed=0, field=F)
    pts = modq.projective_points(7, q)[:80]
    Tq = model.tensor_mod(q)
    omegas = np.einsum("xi,iab->xab", pts, Tq) % q
    pfs = _principal_pfaffians_batch(model, omegas, q)
    for t, p in enumerate(pts):
        slow = principal_pfaffians(work, [int(c) for c in p])
        assert [int(v) for v in pfs[t]] == [int(v) % q for v in slow]


def test_pfaffian_rank_consistency_rational(model):
    work = PfaffianModel(d=7, A=model.A, seed=0, field=QQ)
    rng = random.Random(3)
    for _ in range(40):
        p = [rng.randint(-9, 9) for _ in range(7)]
        if not any(p):
            continue
        rank = linalg.rank(QQ, omega_field(work, p))
        pf = principal_pfaffians(work, p)
        assert (rank <= 4) == all(v == 0 for v in pf)


def test_grassmannian_census_counts(model):
    total, on_y1 = grassmannian_census(model, 2)
    assert total == 2667 == gaussian_binomial_2(7, 2)
    assert on_y1 >= 0
    census = rank_census(model, 2)
    assert sum(census.values()) == 127


def _grassmannian_census_enumerated(model, q):
    """(2-planes over F_q, those on Y1) by listing every 2-plane once: the
    reduced row echelon representatives of each pivot pattern (i, j),
    vectorized per pattern.  The oracle for the incidence count."""
    d = model.d
    Aq = np.array(model.A, dtype=np.int64) % q
    total = 0
    solutions = 0
    for i in range(d):
        for j in range(i + 1, d):
            free0 = [c for c in range(i + 1, d) if c != j]
            free1 = list(range(j + 1, d))
            k = len(free0) + len(free1)
            count = q ** k
            total += count
            rows = np.zeros((2, count, d), dtype=np.int64)
            rows[0, :, i] = 1
            rows[1, :, j] = 1
            idx = np.arange(count)
            for t, (r, c) in enumerate([(0, c) for c in free0] + [(1, c) for c in free1]):
                rows[r, :, c] = (idx // q ** (k - 1 - t)) % q
            wedge = np.stack([rows[0, :, a] * rows[1, :, b] - rows[0, :, b] * rows[1, :, a]
                              for a, b in model.pairs], axis=1) % q
            solutions += int(((wedge @ Aq.T) % q == 0).all(axis=1).sum())
    assert total == gaussian_binomial_2(d, q)
    return total, solutions


def _uncertified_model(d, seed):
    """A PfaffianModel on a seeded random A with no certificate taken."""
    return PfaffianModel(d=d, A=geometry._random_A(random.Random(seed), d), seed=seed,
                         field=PrimeField(101))


@pytest.mark.parametrize("q", [2, 3])
def test_grassmannian_census_matches_enumeration(model, model5, q):
    """The incidence count equals listing every 2-plane, on the certified
    models at d = 5, 7 and on uncertified random ones."""
    for m in (model5, model, _uncertified_model(5, 7), _uncertified_model(7, 7)):
        assert grassmannian_census(m, q) == _grassmannian_census_enumerated(m, q)


def _incidence_sides(model, q):
    """#{(u, p) : u in ker omega_p} over P^(d-1)(F_q), counted over p from
    the omega strata and over u from the Y1 count: C_u contributes
    (q^(k_u) - 1)/(q - 1) = 1 + q (planes through u), and each plane has
    q + 1 points."""
    d = model.d
    points = (q ** d - 1) // (q - 1)
    by_p = sum(c * (q ** (d - r) - 1) // (q - 1) for r, c in rank_census(model, q).items())
    by_u = points + q * (q + 1) * grassmannian_census(model, q)[1]
    return by_p, by_u


def test_incidence_double_count():
    """Both sides of the incidence agree for any A, the deep stratum
    included: the d = 9 model certified at q = 2 has one rank-4 point at
    q = 3, where #Y1 and #Y2 differ but the incidence sums still match."""
    model9 = random_model(1, d=9, census_qs=(2,))
    strata = rank_census(model9, 3)
    assert strata[4] == 1
    assert _incidence_sides(model9, 3) == (14497, 14497)
    assert grassmannian_census(model9, 3)[1] != sum(c for r, c in strata.items() if r <= 6)
    for m in (_uncertified_model(5, 3), _uncertified_model(7, 3)):
        for q in (2, 3):
            by_p, by_u = _incidence_sides(m, q)
            assert by_p == by_u


def test_quadratic_form_symmetry_and_value(model):
    """The residue matrix B is symmetric with x B x^T = omega_p(u, v) for
    x = (u, v), the omega taken from the field oracle; a stack of points
    gives the stack of one-point matrices; q = 2 is refused."""
    rng = random.Random(5)
    F = model.field
    ps = [[rng.randrange(101) for _ in range(7)] for _ in range(3)]
    stack = quadratic_form_matrix(model, ps)
    assert stack.shape == (3, 14, 14)
    for p, B in zip(ps, stack):
        assert (quadratic_form_matrix(model, p) == B).all()
        assert (B == B.T).all() and ((0 <= B) & (B < 101)).all()
        u = [rng.randrange(101) for _ in range(7)]
        v = [rng.randrange(101) for _ in range(7)]
        x = u + v
        val = sum(x[i] * int(B[i, j]) * x[j] for i in range(14) for j in range(14)) % 101
        omega = omega_field(model, p)
        direct = F.zero
        for a in range(7):
            for b in range(7):
                direct = F.add(direct, F.mul(F.of_int(u[a]),
                                             F.mul(omega[a][b], F.of_int(v[b]))))
        assert val == direct
    with pytest.raises(ValueError, match="characteristic"):
        quadratic_form_matrix(replace(model, field=PrimeField(2)), ps[0])


def test_model_path_leaves_numpy_ma_unimported():
    """numpy.ma costs about 11 ms to import, and only np.isin's first call
    needs it: certifying a model must not get there."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH", "")) if p)}
    code = ("import sys; from pfgr import geometry; geometry.random_model(1); "
            "print('numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_rank_parity_bulk(model):
    checked, failures = rank_parity_sample(model, 2000, seed=11)
    assert checked == 2000 and not failures


# ---------------------------------------------------------------------------
# membership for planes


def test_y1_membership_and_contraction_oracle(model):
    xs = sample_y1_points(model, sample_y2_points(model, 5, seed=21), seed=21)
    assert len(xs) == 5
    work = PfaffianModel(d=7, A=model.A, seed=0, field=PrimeField(101))
    for x in xs:
        assert y1_membership(work, x)
        oracle = contraction_oracle(work, x)
        assert all(v == 0 for v in oracle)
    rng = random.Random(2)
    x = [[rng.randrange(101) for _ in range(7)] for _ in range(2)]
    assert not y1_membership(work, x)


@pytest.mark.parametrize("d", [5, 7])
@pytest.mark.parametrize("q", [101, 1009])
def test_incidence_sampler_cross_check(request, d, q):
    """Every sampled plane is a rank-2 point of Y1, by two independent routes,
    and plane i meets the kernel at base point i."""
    base = request.getfixturevalue("model" if d == 7 else "model5")
    work = PfaffianModel(d=d, A=base.A, seed=0, field=PrimeField(q))
    ps = sample_y2_points(work, 20, seed=3)
    xs = sample_y1_points(work, ps, seed=3)
    assert len(xs) == 20
    for p, x in zip(ps, xs):
        assert linalg.rank(work.field, [[work.field.of_int(c) for c in row] for row in x]) == 2
        assert y1_membership(work, x)
        assert all(work.field.is_zero(v) for v in contraction_oracle(work, x))
        assert linalg.rank(work.field, kernel_basis(work, p) + x) <= 4
    if d == 7:
        reduced, _, _ = modq.rref(np.array(xs), q)
        assert len({r.tobytes() for r in reduced}) == len(xs)


def test_y1_sampler_refuses_base_points_off_y2(model):
    rng = random.Random(4)
    off = [rng.randrange(1, 101) for _ in range(7)]
    assert y2_membership(model, off) == (6, False)
    with pytest.raises(ValueError, match="not on Y2"):
        sample_y1_points(model, sample_y2_points(model, 2, seed=5) + [off])
    assert sample_y1_points(model, []) == []


def test_y1_membership_rejects_rank_deficient(model):
    work = PfaffianModel(d=7, A=model.A, seed=0, field=PrimeField(101))
    with pytest.raises(ValueError):
        y1_membership(work, [[1, 0, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0, 0]])


# ---------------------------------------------------------------------------
# smoothness sampling


def test_smoothness_samples(model):
    pts = sample_y2_points(model, 25, seed=31)
    rep = smoothness_sample(model, "Y2", pts)
    assert rep.passed and set(rep.ranks) == {3} and rep.found == 25
    rep = smoothness_sample(model, "Y1", sample_y1_points(model, pts[:10], seed=31))
    assert rep.passed and set(rep.ranks) == {7} and rep.found == 10


def test_smoothness_samples_d5(model5):
    pts = sample_y2_points(model5, 25, seed=31)
    rep = smoothness_sample(model5, "Y2", pts)
    assert rep.passed and set(rep.ranks) == {3}
    rep = smoothness_sample(model5, "Y1", sample_y1_points(model5, pts[:10], seed=31))
    assert rep.passed and set(rep.ranks) == {5}


def test_smoothness_short_sample_fails(model, monkeypatch):
    """A short sample never reaches the check: the sampler refuses it with
    ValueError.  A point off Y2 among the given ones is a witness."""
    pts = sample_y2_points(model, 3, seed=33)
    rep = smoothness_sample(model, "Y2", pts)
    assert rep.found == 3 and rep.passed and not rep.witnesses
    monkeypatch.setattr(geometry, "SAMPLER_MAX_TRIES", 0)
    with pytest.raises(ValueError, match="sampling_budget_Y2: the sampler found 0 of 4"):
        sample_y2_points(model, 4, seed=33)
    rng = random.Random(6)
    off = [rng.randrange(1, 101) for _ in range(7)]
    rep = smoothness_sample(model, "Y2", pts + [off])
    assert not rep.passed and [w["point"] for w in rep.witnesses] == [off]


def test_smoothness_rejects_unknown_variety(model):
    with pytest.raises(ValueError):
        smoothness_sample(model, "Y3", [])


def _largest_int64_prime(d):
    """The largest q with C(d, 2) (q - 1)^2 < 2^63, the bound random_model
    puts on every int64 sum of residues."""
    q = isqrt((2 ** 63 - 1) // comb(d, 2)) + 1
    while not is_prime(q):
        q -= 1
    return q


def _jacobian_oracle(work, p):
    """dPf_i/dp_j over work.field, from principal_pfaffians along p + t e_j at
    t = 0..(d - 1)/2: Pf_i has degree (d - 1)/2 in t, so its Lagrange
    interpolant is exact, and J[i][j] is the interpolant's slope at 0."""
    F, d = work.field, work.d
    ts = range((d + 1) // 2)
    # L_m'(0) = sum over l != m of 1/(t_m - t_l) prod over s != m, l of -t_s/(t_m - t_s)
    weights = []
    for m in ts:
        w = Fraction(0)
        for l in ts:
            if l != m:
                term = Fraction(1, m - l)
                for s in ts:
                    if s not in (m, l):
                        term *= Fraction(-s, m - s)
                w += term
        weights.append(F.mul(F.of_int(w.numerator), F.inv(F.of_int(w.denominator))))
    J = [[F.zero] * d for _ in range(d)]
    for j in range(d):
        for m, w in zip(ts, weights):
            pt = list(p)
            pt[j] += m
            for i, pf in enumerate(principal_pfaffians(work, pt)):
                J[i][j] = F.add(J[i][j], F.mul(w, pf))
    return J


@pytest.mark.parametrize("d", [5, 7, 9])
@pytest.mark.parametrize("q", [101, 1009, "int64"])
def test_pfaffian_jacobian_matches_interpolation_oracle(request, d, q):
    """The stacked Jacobian equals dPf_i/dp_j interpolated over PrimeField(q),
    and each point of the stack equals the call on a stack of that point.

    The int64 case takes the largest prime the bound admits and a model with
    every entry of A negative, so every residue of A mod q lies near q: each
    entry of J, C(d, 2) products of residues summed before one reduction,
    comes within a small factor of 2^63.  At d = 9 the sub-Pfaffians are
    6 x 6 and share their 4 x 4 sub-Pfaffians through the memo, which d = 5 and 7
    never reach; that model is a random uncertified A, as in the census tests.
    """
    rng = random.Random(d)
    if d == 9:
        base = PfaffianModel(d=d, A=geometry._random_A(rng, d), seed=0, field=PrimeField(101))
    else:
        base = request.getfixturevalue("model" if d == 7 else "model5")
    if q == "int64":
        q = _largest_int64_prime(d)
        A = tuple(tuple(rng.randint(-9, -1) for _ in range(comb(d, 2))) for _ in range(d))
        work = PfaffianModel(d=d, A=A, seed=0, field=PrimeField(q))
        pts = [[rng.randrange(1, q) for _ in range(d)] for _ in range(4)]
    else:
        work = PfaffianModel(d=d, A=base.A, seed=0, field=PrimeField(q))
        # five points on Y2 and three random points off it
        pts = sample_y2_points(work, 5, seed=d)
        pts += [[rng.randrange(1, q) for _ in range(d)] for _ in range(3)]
    J = geometry.pfaffian_jacobian_mod(work, pts)
    assert J.shape == (len(pts), d, d)
    for p, Jp in zip(pts, J):
        assert Jp.tolist() == _jacobian_oracle(work, p)
        assert (geometry.pfaffian_jacobian_mod(work, [p])[0] == Jp).all()


@pytest.mark.parametrize("d", [5, 7])
def test_y1_jacobian_matches_wedge_columns(request, d):
    """Column a of the stacked Y1 differential is A(e_a wedge v), column
    d + a is A(u wedge e_a), and each point equals the call on a stack of
    that point."""
    base = request.getfixturevalue("model" if d == 7 else "model5")
    q = 101
    F = PrimeField(q)
    work = PfaffianModel(d=d, A=base.A, seed=0, field=F)
    rng = random.Random(d)
    xs = sample_y1_points(work, sample_y2_points(work, 5, seed=d), seed=d)
    xs += [[[rng.randrange(q) for _ in range(d)] for _ in range(2)] for _ in range(3)]
    D = geometry.y1_jacobian_mod(work, xs)
    assert D.shape == (len(xs), d, 2 * d)
    for (u, v), Dx in zip(xs, D):
        e = [[int(a == b) for b in range(d)] for a in range(d)]
        cols = ([contraction_oracle(work, [e[a], v]) for a in range(d)]
                + [contraction_oracle(work, [u, e[a]]) for a in range(d)])
        assert Dx.T.tolist() == cols
        assert (geometry.y1_jacobian_mod(work, [[u, v]])[0] == Dx).all()


# ---------------------------------------------------------------------------
# kernels and isotropic extensions


def _assert_isotropic(work, p, basis):
    omega = omega_field(work, p)
    F = work.field
    assert linalg.rank(F, basis) == len(basis)
    for u in basis:
        mu = mat_vec(F, omega, u)
        for v in basis:
            assert F.is_zero(sum(a * b for a, b in zip(mu, v)) % F.q)


@pytest.mark.parametrize("q", [3, 101])
@pytest.mark.parametrize("d", [5, 7, 9])
def test_pointwise_residue_path_matches_linalg(request, d, q):
    """Over F_q, at pool points and random points: kernel_basis equals the
    linalg kernel of the coefficient-tensor oracle entry for entry (both are
    canonical reduced-form kernels), y2_membership its rank, and
    y1_membership the contraction oracle on sampled planes and random
    rank-2 matrices.  maximal_isotropic and kernel_and_extend come back
    isotropic by the oracle and of the target dimension, or kernel_and_extend
    names a plane that meets the kernel."""
    base = request.getfixturevalue({5: "model5", 7: "model", 9: "model9"}[d])
    work = replace(base, field=PrimeField(q))
    F = work.field
    rng = random.Random(d * q)
    pool = sample_y2_points(work, 6, seed=d)
    assert len(pool) == 6
    randoms = [[rng.randrange(q) for _ in range(d)] for _ in range(6)]
    for p in pool + [r for r in randoms if any(r)]:
        omega = omega_field(work, p)
        assert kernel_basis(work, p) == right_kernel(F, omega)
        r = linalg.rank(F, omega)
        assert y2_membership(work, p) == (r, r <= d - 3)
    planes = sample_y1_points(work, pool, seed=d)
    assert planes and all(y1_membership(work, x) for x in planes)
    others = [[[rng.randrange(q) for _ in range(d)] for _ in range(2)] for _ in range(6)]
    for x in planes + [x for x in others if linalg.rank(F, x) == 2]:
        assert y1_membership(work, x) == all(F.is_zero(c) for c in contraction_oracle(work, x))
    target = geometry.isotropic_target_dim(d)
    extended = 0
    for p, x in zip(pool, planes[1:] + planes[:1]):
        L = maximal_isotropic(work, p)
        assert len(L) == target
        _assert_isotropic(work, p, L)
        res = kernel_and_extend(work, p, x)
        if res.ok:
            assert len(res.extension) == target
            _assert_isotropic(work, p, res.extension)
            extended += 1
        else:
            assert res.failure == "kernel_meets_image"
            assert linalg.rank(F, res.kernel + x) < min(target, 5)
    assert extended


def test_pointwise_functions_refuse_rationals(model):
    """Every pointwise verdict and sampler runs mod the model's prime: over Q
    it raises ValueError before any arithmetic, and so it does over a prime
    past the int64 bound C(d, 2)(q - 1)^2 < 2^63, here a model over
    F_(2^31 - 1) built directly, which random_model would refuse.
    certify_model instead moves the model onto its sampling field, so over Q
    it certifies as over F_101."""
    over_q = replace(model, field=QQ)
    too_big = replace(model, field=PrimeField(2 ** 31 - 1))
    p = sample_y2_points(model, 1, seed=18)[0]
    x = sample_y1_points(model, [p], seed=18)[0]
    ps, us = np.array([p]), np.array([x[0]])
    for bad, match in ((over_q, "prime field"), (too_big, "too large for exact int64")):
        for call in (lambda: y1_membership(bad, x), lambda: y2_membership(bad, p),
                     lambda: kernel_basis(bad, p), lambda: kernel_and_extend(bad, p, x),
                     lambda: maximal_isotropic(bad, p),
                     lambda: underlying_scheme_probe(bad, p),
                     lambda: quadratic_form_matrix(bad, p),
                     lambda: sample_y2_points(bad, 1),
                     lambda: sample_y1_points(bad, [p]),
                     lambda: y2_kernels(bad, [p]),
                     lambda: geometry.pfaffian_jacobian_mod(bad, [p]),
                     lambda: geometry.y1_jacobian_mod(bad, [x]),
                     lambda: geometry._batch_verdicts(bad, us, us, ps),
                     lambda: smoothness_sample(bad, "Y2", [p]),
                     lambda: smoothness_sample(bad, "Y1", [x]),
                     lambda: normal_map_check(bad, [p]),
                     lambda: rank_parity_sample(bad, 10),
                     lambda: critical_equivalence_sweep(bad, [p])):
            with pytest.raises(ValueError, match=match):
                call()
    assert certify_model(over_q) == certify_model(model)


def test_verdicts_read_the_prime_of_the_model():
    """On a model over F_1009 every verdict runs mod 1009 with no prime
    given: the Y2 and Y1 points pass smoothness, the normal map passes at
    each Y2 point, and the critical sweep agrees everywhere."""
    model = random_model(1, field=PrimeField(1009), q=1009)
    pts = sample_y2_points(model, 10, seed=4)
    assert len(pts) == 10 and max(max(p) for p in pts) > 101
    assert smoothness_sample(model, "Y2", pts).passed
    assert smoothness_sample(model, "Y1", sample_y1_points(model, pts, seed=4)).passed
    assert all(res.passed for res in normal_map_check(model, pts))
    sweep = critical_equivalence_sweep(model, pts, n_pos=100, n_near=100, n_rand=100)
    assert sweep.consistent and sweep.positive_failures == 0


@pytest.mark.parametrize("d", [5, 7, 9])
def test_y2_kernels_match_kernel_basis(request, d):
    """y2_kernels reads the canonical kernel bases of a whole pool off one
    reduced form: point by point they equal kernel_basis.  A point of omega
    rank d - 1 makes it raise, and with it the sampler of Y1 planes, the
    normal map and the critical sweep."""
    model = request.getfixturevalue({5: "model5", 7: "model", 9: "model9"}[d])
    pool = sample_y2_points(model, 8, seed=d)
    K = y2_kernels(model, pool)
    assert K.shape == (8, 3, d)
    assert [k.tolist() for k in K] == [kernel_basis(model, p) for p in pool]
    rng = random.Random(d)
    off = [rng.randrange(1, 101) for _ in range(d)]
    assert y2_membership(model, off) == (d - 1, False)
    for call in (y2_kernels, sample_y1_points, normal_map_check, critical_equivalence_sweep):
        with pytest.raises(ValueError, match=f"not on Y2: omega rank {d - 1}"):
            call(model, pool[:3] + [off])


def test_y2_kernels_refuse_deeper_points():
    """A point whose omega has rank below d - 3 is refused too: here A has a
    zero first row, so omega at e_0 vanishes."""
    rng = random.Random(3)
    A = ((0,) * 21,) + tuple(tuple(rng.randint(-9, 9) for _ in range(21)) for _ in range(6))
    model = PfaffianModel(d=7, A=A, seed=0, field=PrimeField(101))
    e0 = [1, 0, 0, 0, 0, 0, 0]
    assert y2_membership(model, e0) == (0, True)
    for call in (y2_kernels, sample_y1_points, critical_equivalence_sweep):
        with pytest.raises(ValueError, match="not on Y2: omega rank 0"):
            call(model, [e0])


def test_kernel_and_extend_generic(model):
    """A plane through another base point is transverse to the kernel, and
    the extension is the kernel plus both of its rows."""
    work = PfaffianModel(d=7, A=model.A, seed=0, field=PrimeField(101))
    pts = sample_y2_points(model, 2, seed=41)
    xs = sample_y1_points(model, pts, seed=41)
    res = kernel_and_extend(work, pts[0], xs[1])
    assert res.ok
    assert len(res.kernel) == 3 and len(res.extension) == 5
    assert res.extension[3:] == xs[1]
    _assert_isotropic(work, pts[0], res.extension)


def test_kernel_and_extend_d9():
    """At d = 9 the kernel and a transverse Y1 plane span 5 dimensions and
    the certified extension is completed to 6 inside their perp."""
    model9 = random_model(1, d=9, census_qs=(2,))
    work = replace(model9, field=PrimeField(101))
    pts = sample_y2_points(model9, 2, seed=45)
    xs = sample_y1_points(model9, pts, seed=45)
    res = kernel_and_extend(work, pts[0], xs[1])
    assert res.ok and len(res.kernel) == 3 and len(res.extension) == 6
    _assert_isotropic(work, pts[0], res.extension)
    assert kernel_and_extend(work, pts[1], xs[1]).failure == "kernel_meets_image"


def test_kernel_dimension_always_three(model):
    work = PfaffianModel(d=7, A=model.A, seed=0, field=PrimeField(101))
    for p in sample_y2_points(model, 5, seed=43):
        assert len(kernel_basis(work, p)) == 3


def test_kernel_and_extend_named_failure(model):
    """The Y1 plane drawn through p contains some k != 0 in K_p, so
    K_p + span(x) has dimension at most 4 and at most one row of x can be
    added; d = 7 needs two."""
    work = PfaffianModel(d=7, A=model.A, seed=0, field=PrimeField(101))
    p = sample_y2_points(model, 1, seed=2)[0]
    x = sample_y1_points(model, [p], seed=2)[0]
    res = kernel_and_extend(work, p, x)
    assert not res.ok and res.failure == "kernel_meets_image"


def test_kernel_and_extend_preconditions(model):
    work = PfaffianModel(d=7, A=model.A, seed=0, field=PrimeField(101))
    rng = random.Random(7)
    generic_p = [rng.randrange(101) for _ in range(7)]
    xs = sample_y1_points(model, sample_y2_points(model, 1, seed=47), seed=47)
    with pytest.raises(ValueError):
        kernel_and_extend(work, generic_p, xs[0])


def test_maximal_isotropic(model, model5, model9):
    """The completion is canonical: two calls give the same basis, it starts
    with kernel_basis, and its (d + 3) / 2 rows are independent and
    isotropic.  Off Y2 (omega of rank d - 1) the maximal isotropic subspaces
    through the kernel have dimension (d + 1) / 2, short of the target, and
    the completion raises ValueError instead of searching; maximal_isotropic
    itself refuses such a point first, through y2_kernels."""
    for mod in (model5, model, model9):
        d = mod.d
        work = replace(mod, field=PrimeField(101))
        p = sample_y2_points(mod, 1, seed=51)[0]
        L = maximal_isotropic(work, p)
        assert maximal_isotropic(work, p) == L
        assert L[:3] == kernel_basis(work, p)
        assert len(L) == (d + 3) // 2
        _assert_isotropic(work, p, L)
        rng = random.Random(d)
        off = [rng.randrange(1, 101) for _ in range(d)]
        assert y2_membership(work, off) == (d - 1, False)
        omega = geometry.omegas(work, off, 101)
        with pytest.raises(ValueError, match="rank above"):
            geometry._extend_isotropic(omega, kernel_basis(work, off),
                                       geometry.isotropic_target_dim(d), 101)
        with pytest.raises(ValueError, match=f"not on Y2: omega rank {d - 1}"):
            maximal_isotropic(work, off)


def test_invariant_vanishes_on_isotropic_hom(model):
    """W(x, p) = 0 whenever both columns of x land in an isotropic subspace."""
    work = PfaffianModel(d=7, A=model.A, seed=0, field=PrimeField(101))
    F = work.field
    p = sample_y2_points(model, 1, seed=55)[0]
    L = maximal_isotropic(work, p)
    rng = random.Random(12)
    K = kernel_basis(work, p)
    omega = omega_field(work, p)
    for _ in range(50):
        cu = [rng.randrange(101) for _ in L]
        cv = [rng.randrange(101) for _ in L]
        u = [sum(c * vec[i] for c, vec in zip(cu, L)) % 101 for i in range(7)]
        v = [sum(c * vec[i] for c, vec in zip(cv, L)) % 101 for i in range(7)]
        mu = mat_vec(F, omega, u)
        w_val = sum(a * b for a, b in zip(mu, v)) % 101
        assert w_val == 0
    # rank-one maps into the kernel kill the whole gradient, hence W
    k = K[0]
    g = grad_W(work, [[2 * c % 101 for c in k], [3 * c % 101 for c in k]], p)
    assert all(F.is_zero(c) for c in g)


def test_d5_plane_always_meets_kernel(model5):
    """In dimension five the kernel and any solution plane must intersect."""
    work = PfaffianModel(d=5, A=model5.A, seed=0, field=PrimeField(101))
    pts = sample_y2_points(model5, 3, seed=53)
    xs = sample_y1_points(model5, sample_y2_points(model5, 3, seed=54), seed=53)
    F = work.field
    for p in pts:
        K = kernel_basis(work, p)
        for x in xs:
            xm = [[F.of_int(c) for c in row] for row in x]
            stacked = [list(v) for v in K] + xm
            # 3 + 2 vectors in a 5-dim space that cannot be transverse:
            # an isotropic 5-dim subspace would contradict rank 2
            assert linalg.rank(F, stacked) <= 4


# ---------------------------------------------------------------------------
# the critical locus


def test_grad_zero_matrix(model):
    work = PfaffianModel(d=7, A=model.A, seed=0, field=PrimeField(101))
    rng = random.Random(8)
    p = [rng.randrange(1, 101) for _ in range(7)]
    g = grad_W(work, [[0] * 7, [0] * 7], p)
    assert all(work.field.is_zero(c) for c in g)
    crit, flags = critical_test(work, [[0] * 7, [0] * 7], p)
    assert crit and flags["geometric"]


def test_critical_positives_and_near_misses(model):
    work = PfaffianModel(d=7, A=model.A, seed=0, field=PrimeField(101))
    p = sample_y2_points(model, 1, seed=61)[0]
    K = kernel_basis(work, p)
    k = K[0]
    # rank-one into the kernel: critical
    x = [[(3 * c) % 101 for c in k], [(5 * c) % 101 for c in k]]
    crit, flags = critical_test(work, x, p)
    assert crit and flags["geometric"] and flags["gradient_zero"]
    # rank-two inside the kernel: gradient picks up the wedge contractions
    x2 = [list(K[0]), list(K[1])]
    crit, flags = critical_test(work, x2, p)
    assert not crit and not flags["rank_le_1"] and flags["image_in_kernel"]
    assert not flags["gradient_zero"]
    # rank-one off the kernel
    rng = random.Random(9)
    u = [rng.randrange(101) for _ in range(7)]
    x3 = [u, [(2 * c) % 101 for c in u]]
    crit, flags = critical_test(work, x3, p)
    assert not crit and not flags["image_in_kernel"]


def test_critical_sweep_consistency(model):
    sweep = critical_equivalence_sweep(model, sample_y2_points(model, 16, seed=72),
                                       n_pos=200, n_near=200, n_rand=2000, seed=71)
    assert sweep.consistent and sweep.positive_failures == 0
    assert sweep.positives >= 190 and sweep.randoms >= 1990


def test_critical_sweep_reports_a_planted_disagreement():
    """The sweep can fail.  With A zero on Lambda^2<e1, e2, e3> and
    omega_{e0} = e0 ^ e4 + e5 ^ e6, e0 lies on Y2 with K = <e1, e2, e3>, and
    every rank-two map into K has vanishing gradient without being
    geometric: all 50 in-kernel near-misses disagree, no positive fails."""
    pairs = geometry.wedge_pairs(7)
    rng = random.Random(29)
    rows = [[int(c in ((0, 4), (5, 6))) for c in pairs]]
    rows += [[0 if set(c) <= {1, 2, 3} else rng.randint(-9, 9) for c in pairs]
             for _ in range(6)]
    model = PfaffianModel(d=7, A=tuple(map(tuple, rows)), seed=0, field=PrimeField(101))
    e0 = [1, 0, 0, 0, 0, 0, 0]
    assert y2_kernels(model, [e0]).tolist() == [[[0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0],
                                                 [0, 0, 0, 1, 0, 0, 0]]]
    sweep = critical_equivalence_sweep(model, [e0], n_pos=100, n_near=100, n_rand=100, seed=1)
    assert sweep.positive_failures == 0 and len(sweep.disagreements) == 50
    for w in sweep.disagreements:
        assert w["p"] == e0 and w["gradient_zero"] and not w["geometric"]
        assert all(row[0] == 0 and not any(row[4:]) for row in w["x"])
        assert modq.batch_rank(np.array(w["x"]), 101).tolist() == [2]


def test_critical_sweep_judges_each_group_as_one_stack(model, monkeypatch):
    """At 16 base points the sweep makes one _batch_verdicts call per group:
    positives, rank <= 1 in K_p, 62 at each point in point order (992 in
    all); rank-two near-misses in K_p; rank-one near-misses v = lambda u at
    the first point; then the uniform randoms."""
    q = model.field.q
    pts = sample_y2_points(model, 16, seed=2)
    K = y2_kernels(model, pts)
    calls = []
    real = geometry._batch_verdicts

    def spy(model_, us, vs, ps):
        calls.append((us, vs, ps))
        return real(model_, us, vs, ps)

    monkeypatch.setattr(geometry, "_batch_verdicts", spy)
    sweep = critical_equivalence_sweep(model, pts, seed=1)
    assert len(calls) == 4
    (pu, pv, pp), (nu, nv, np_), (ou, ov, op), (ru, rv, rp) = calls

    def ranks(*rows):
        return modq.batch_rank(np.stack(rows, axis=1), q)

    def in_kernel(vs, ps):
        index = [pts.index(p) for p in ps.tolist()]
        return ranks(*K[index].transpose(1, 0, 2), vs) == 3

    assert pp.tolist() == [p for p in pts for _ in range(62)] and sweep.positives == 992
    assert (ranks(pu, pv) <= 1).all() and in_kernel(pu, pp).all() and in_kernel(pv, pp).all()
    assert (ranks(nu, nv) == 2).all() and in_kernel(nu, np_).all() and in_kernel(nv, np_).all()
    assert len(nu) + len(ou) == sweep.near_misses == 1000
    # u is off K_p, so nonzero, and rank <= 1 makes v a multiple of u
    assert (op == pts[0]).all() and not in_kernel(ou, op).any() and (ranks(ou, ov) <= 1).all()
    assert len(ru) == len(rv) == len(rp) == sweep.randoms and rp.any(axis=1).all()


# ---------------------------------------------------------------------------
# normal directions and the invariant ring


def test_normal_map(model):
    pts = sample_y2_points(model, 10, seed=81)
    for res in normal_map_check(model, pts):
        assert res.passed and res.rank == 3 and res.jacobian_rank == 3


def test_normal_map_rejects_generic_point(model):
    rng = random.Random(10)
    with pytest.raises(ValueError):
        normal_map_check(model, [[rng.randrange(101) for _ in range(7)]])


@pytest.mark.parametrize("d", [5, 7])
def test_stacked_normal_map_matches_linalg(request, d):
    """Each result of a 20-point stack equals the same check done pointwise
    over PrimeField(101) with pfgr.linalg: the kernel basis, the 2-forms
    omega_{e_i} restricted to it, and the interpolated Jacobian, and the
    check on a stack of that point alone.  One point off Y2 makes the whole
    stack raise."""
    base = request.getfixturevalue("model" if d == 7 else "model5")
    q = 101
    F = PrimeField(q)
    work = PfaffianModel(d=d, A=base.A, seed=0, field=F)
    T = base.coefficient_tensor()
    pts = sample_y2_points(base, 20, seed=83)
    results = normal_map_check(base, pts)
    assert len(results) == 20
    for p, res in zip(pts, results):
        K = kernel_basis(work, p)

        def pair(i, s, t):
            return sum(K[s][a] * T[i][a][b] * K[t][b] for a in range(d) for b in range(d)) % q
        M3 = [[pair(i, s, t) for i in range(d)] for s, t in [(0, 1), (0, 2), (1, 2)]]
        J = _jacobian_oracle(work, p)
        rank_m, rank_j = linalg.rank(F, M3), linalg.rank(F, J)
        expect = geometry.NormalMapResult(
            rank_m, rank_j, linalg.rank(F, J + M3) == rank_j == rank_m)
        assert res == expect and res.passed
        assert normal_map_check(base, [p]) == [expect]
    rng = random.Random(d)
    off = [rng.randrange(1, q) for _ in range(d)]
    assert y2_membership(work, off) == (d - 1, False)
    with pytest.raises(ValueError):
        normal_map_check(base, pts[:7] + [off] + pts[7:])


def test_underlying_scheme_probe(model):
    p = sample_y2_points(model, 1, seed=91)[0]
    dims, ok = underlying_scheme_probe(model, p)
    assert ok
    assert dims[2] == 3 and dims[1] == 0 and dims[4] == 6 and dims[6] == 10


# ---------------------------------------------------------------------------
# point counts


def test_point_counts_reported_side_by_side(model):
    """The two solution counts are equal: the incidence double count gives
    #Y1(F_q) = #Y2(F_q) once the deep stratum is empty, as it is on a
    certified model."""
    census = rank_census(model, 2)
    y2_count = sum(c for r, c in census.items() if r <= 4)
    _, y1_count = grassmannian_census(model, 2)
    assert y2_count > 0 and y1_count > 0
    assert y1_count == y2_count
