"""The package's one integer factorizer: trial division, BPSW and Pollard-Brent rho."""

from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import porcfield._gfpoly as gfpoly
from porcfield._gfpoly import factorize
from porcfield.cli import main
from porcfield.errors import ScaleCapError

SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def _sieve(limit):
    flags = [True] * limit
    flags[:2] = [False, False]
    for d in range(2, isqrt(limit) + 1):
        if flags[d]:
            flags[d * d :: d] = [False] * len(flags[d * d :: d])
    return [d for d, prime in enumerate(flags) if prime]


# small primes, primes around the trial-division bound, and primes rho must find
PRIMES = _sieve(2000) + [p for p in _sieve(1_000_100) if p > 999_900]


@given(st.dictionaries(st.sampled_from(PRIMES), st.integers(1, 4), min_size=1, max_size=4))
@SETTINGS
def test_products_of_known_primes(expected):
    n = 1
    for p, e in expected.items():
        n *= p**e
    result = factorize(n)
    assert result == expected
    assert list(result) == sorted(result)


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, {}),
        (1, {}),
        # Carmichael numbers
        (561, {3: 1, 11: 1, 17: 1}),
        (41041, {7: 1, 11: 1, 13: 1, 41: 1}),
        (9746347772161, {7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 31: 1, 37: 1, 41: 1, 641: 1}),
        # strong pseudoprimes to base 2
        (2047, {23: 1, 89: 1}),
        (3215031751, {151: 1, 751: 1, 28351: 1}),
        (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),
        # a strong Lucas pseudoprime for Selfridge's parameters
        (2263127, {1063: 1, 2129: 1}),
        # Mersenne and Fermat numbers
        (2**61 - 1, {2**61 - 1: 1}),
        (2**67 - 1, {193707721: 1, 761838257287: 1}),
        (2**64 + 1, {274177: 1, 67280421310721: 1}),
        # a prime power whose root is far beyond rho's reach
        ((2**61 - 1) ** 3, {2**61 - 1: 3}),
    ],
)
def test_known_factorizations(n, expected):
    assert factorize(n) == expected


@pytest.mark.parametrize(
    "n",
    [
        # the least strong pseudoprimes to the first 12 and the first 13 prime
        # bases: Miller-Rabin on the primes up to 37 calls both prime
        399165290221 * 798330580441,
        1287836182261 * 2575672364521,
    ],
)
def test_strong_pseudoprimes_to_many_bases_are_composite(n):
    assert not gfpoly._is_prime(n)


def test_the_largest_semiprime_of_two_32_bit_primes_stays_under_the_cap():
    # below 2^64 a modulus is factored without first being shrunk
    p, q = 4294967291, 4294967279
    assert factorize(p * q) == {q: 1, p: 1}


def test_step_cap_names_the_cap(monkeypatch):
    monkeypatch.setattr(gfpoly, "FACTOR_STEP_CAP", 10)
    with pytest.raises(ScaleCapError, match="13-digit cofactor exceeds FACTOR_STEP_CAP = 10"):
        factorize(1000003 * 1000033)


def test_step_cap_exits_2_from_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(gfpoly, "FACTOR_STEP_CAP", 10)
    assert main(["gcd-porc", "--text", "x\n1000036000099"]) == 2
    assert "FACTOR_STEP_CAP" in capsys.readouterr().err


def test_cli_factors_a_two_prime_modulus(capsys):
    assert main(["gcd-porc", "--text", "x\n1000036000099"]) == 0
    assert capsys.readouterr().out == "gcd(x,1000036000099)\n"
