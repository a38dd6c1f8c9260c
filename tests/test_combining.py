"""Combining rules against independent brute-force mechanism enumeration."""

import itertools
import random

import pytest

from ctxkb import combining, noisy_max
from ctxkb.errors import CombiningRuleError
from ctxkb.combining import single_only


def brute_force_max(distributions, order):
    """Each mechanism independently draws a value; the result is the maximum
    in ``order`` (a permutation of value indexes, lowest first)."""
    rank = {v: r for r, v in enumerate(order)}
    k = len(order)
    out = [0.0] * k
    for combo in itertools.product(range(k), repeat=len(distributions)):
        p = 1.0
        for d, v in zip(distributions, combo):
            p *= d[v]
        winner = max(combo, key=lambda v: rank[v])
        out[winner] += p
    return out


def mech(*dist):
    return tuple(dist)


def test_single_mechanism_is_identity():
    d = (0.2, 0.3, 0.5)
    assert noisy_max(None, [mech(*d)], ("a", "b", "c")) == d


def test_binary_reduces_to_noisy_or():
    m1, m2 = mech(0.9, 0.1), mech(0.7, 0.3)
    got = noisy_max(None, [m1, m2], ("off", "on"))
    assert got[1] == pytest.approx(1 - 0.9 * 0.7, abs=1e-12)
    assert got[0] == pytest.approx(0.9 * 0.7, abs=1e-12)


def test_matches_brute_force_random():
    rng = random.Random(3)
    for _ in range(300):
        k = rng.randint(2, 4)
        n = rng.randint(2, 4)
        dists = []
        for _ in range(n):
            w = [rng.random() + 0.01 for _ in range(k)]
            s = sum(w)
            dists.append(tuple(x / s for x in w))
        values = tuple("v%d" % i for i in range(k))
        got = noisy_max(None, [mech(*d) for d in dists], values)
        want = brute_force_max(dists, list(range(k)))
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12
        assert sum(got) == pytest.approx(1.0, abs=1e-12)


def test_distinguished_parameter_rotates_order():
    dists = [(0.5, 0.2, 0.3), (0.1, 0.6, 0.3)]
    values = ("a", "b", "c")
    got = noisy_max(None, [mech(*d) for d in dists], values, {"distinguished": "b"})
    # combination order becomes b, a, c
    want = brute_force_max(dists, [1, 0, 2])
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


def test_mechanism_must_be_normalized():
    with pytest.raises(CombiningRuleError):
        noisy_max(None, [mech(0.5, 0.6), mech(0.5, 0.5)], ("a", "b"))


def test_empty_mechanism_list_rejected():
    with pytest.raises(CombiningRuleError):
        noisy_max(None, [], ("a", "b"))


def test_single_only_rejects_multiple_groups():
    with pytest.raises(CombiningRuleError):
        single_only(("p",), [mech(0.5, 0.5), mech(0.5, 0.5)], ("a", "b"))
    assert single_only(("p",), [mech(0.4, 0.6)], ("a", "b")) == (0.4, 0.6)


def test_rule_lookup_reads_the_module_at_call_time(monkeypatch):
    assert combining.rule("noisy_max") is noisy_max
    wrapped = lambda *args: noisy_max(*args)  # as a tracer installs it
    monkeypatch.setattr(combining, "noisy_max", wrapped)
    assert combining.rule("noisy_max") is wrapped
    assert combining.rule("single_only") is single_only
    with pytest.raises(CombiningRuleError, match="unknown combining rule 'nope'"):
        combining.rule("nope")
