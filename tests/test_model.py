from fractions import Fraction as F

import pytest

import twbench
from twbench.model import (
    DegenerateFrame,
    DomainError,
    HyperbolicPDE,
    SchemaError,
    parse_model,
    quartic_reduction,
    serialize_model,
)


class TestParseModel:
    def test_telegraph_with_symbols(self):
        pde = parse_model('{"tau":1,"A":0,"B":1,"kappa":1,"reaction":{"1":"l1","3":"l3"}}')
        assert pde.tau == 1 and pde.A == 0 and pde.B == 1 and pde.kappa == 1
        assert pde.reaction == {F(1): "l1", F(3): "l3"}
        assert not pde.is_numeric()

    def test_burgers(self):
        pde = parse_model('{"tau":0,"A":2,"B":1,"kappa":1,"reaction":{}}')
        assert pde.A == 2 and pde.reaction == {}
        assert pde.is_numeric()

    def test_half_integer_exponent_accepted(self):
        pde = parse_model('{"tau":1,"A":0,"B":0,"kappa":1,"reaction":{"1/2":"lh"}}')
        assert pde.has_half_integer_reaction()

    def test_decimals_read_exactly(self):
        pde = parse_model('{"tau":0.1,"A":0,"B":1,"kappa":1,"reaction":{"1":0.25}}')
        assert pde.tau == F(1, 10)
        assert pde.reaction[F(1)] == F(1, 4)

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError):
            parse_model('{"tau":1,"A":0,"B":1,"kappa":1,"reaction":{},"extra":1}')
        with pytest.raises(SchemaError):
            parse_model('{"tau":1,"A":0,"B":1,"reaction":{}}')

    def test_negative_coefficients_rejected(self):
        with pytest.raises(DomainError):
            parse_model('{"tau":-1,"A":0,"B":1,"kappa":1,"reaction":{}}')

    def test_exponent_outside_allowed_set(self):
        with pytest.raises(SchemaError):
            parse_model('{"tau":1,"A":0,"B":1,"kappa":1,"reaction":{"5/2":1}}')

    def test_all_linear_coefficients_zero_rejected(self):
        with pytest.raises(DomainError):
            parse_model('{"tau":0,"A":0,"B":0,"kappa":0,"reaction":{"1":1}}')

    def test_round_trip_identity(self):
        models = [
            parse_model('{"tau":1,"A":0,"B":1,"kappa":1,"reaction":{"1":"l1","3":"l3"}}'),
            HyperbolicPDE(tau=F(1, 3), A=F(0), B=F(1), kappa=F(1, 10),
                          reaction={F(1): F(2, 7), F(3, 2): "lq"}),
            HyperbolicPDE(tau=F(0), A=F(2), B=F(1), kappa=F(1), reaction={}),
        ]
        for pde in models:
            assert parse_model(serialize_model(pde)) == pde

    def test_equal_models_hash_equal(self):
        # the hash is taken once, from the reaction map sorted by exponent
        a = HyperbolicPDE(tau=1, A=0, B=1, kappa=1, reaction={1: "l1", F(3, 2): F(2, 7)})
        b = HyperbolicPDE(tau=F(1), A=0, B=1, kappa=1, reaction={F(3, 2): F(2, 7), 1: "l1"})
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1


class TestQuarticReduction:
    def test_reference_coefficients(self):
        pde = parse_model('{"tau":1,"A":0,"B":0,"kappa":1,'
                          '"reaction":{"0":0,"1":3,"2":0,"3":-6}}')
        q = quartic_reduction(pde, v=F(2), c0=F(0))
        assert (q.c1, q.c2, q.c3, q.c4) == (0, 1, 0, -1)
        assert q.H == 3

    def test_zero_reaction_gives_zero_coefficients(self):
        pde = parse_model('{"tau":1,"A":0,"B":0,"kappa":1,"reaction":{}}')
        q = quartic_reduction(pde, v=F(3), c0=F(5))
        assert (q.c1, q.c2, q.c3, q.c4) == (0, 0, 0, 0)
        assert q.c0 == 5

    def test_degenerate_frame(self):
        pde = parse_model('{"tau":1,"A":0,"B":0,"kappa":1,"reaction":{"1":3}}')
        with pytest.raises(DegenerateFrame):
            quartic_reduction(pde, v=F(1), c0=F(0))

    def test_coefficient_identities_randomized(self):
        import random

        from conftest import rand_frac, rand_nonzero
        rng = random.Random(3)
        for _ in range(200):
            lam = {str(k): rand_frac(rng) for k in (0, 1, 2, 3)}
            tau, kappa = abs(rand_nonzero(rng)), abs(rand_frac(rng))
            v = rand_frac(rng)
            if tau * v * v == kappa:
                continue
            pde = HyperbolicPDE(tau=tau, A=F(0), B=F(0), kappa=kappa,
                                reaction={F(k): lam[str(k)] for k in (0, 1, 2, 3)})
            q = quartic_reduction(pde, v=v, c0=rand_frac(rng))
            assert q.H * q.c2 == lam["1"]
            assert 3 * q.H * q.c3 == 2 * lam["2"]
            assert 2 * q.H * q.c4 == lam["3"]

    def test_requires_dalembert_form(self):
        pde = parse_model('{"tau":1,"A":1,"B":0,"kappa":1,"reaction":{"1":1}}')
        with pytest.raises(DomainError):
            quartic_reduction(pde, v=F(2), c0=F(0))


def test_package_exports_resolve():
    missing = [name for name in twbench.__all__ if not hasattr(twbench, name)]
    assert missing == []
