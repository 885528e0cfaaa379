"""The word-rewriting normal-ordering kernel, kept as a test oracle.

This is the kernel ``kinexpand.uea`` used before the generator-into-monomial
product replaced it, unchanged except that its two memo tables live here,
keyed weakly by algebra, instead of on the algebra instance, and that it
builds monomials from words itself.  It shares no code with the current
kernel beyond ``LieAlgebra.bracket_pair``, ``Poly`` arithmetic and
``monomial_to_word``: it rewrites the leftmost out-of-order adjacent pair
x_b x_a (b after a in basis order) into x_a x_b + [x_b, x_a] and memoises
every word it meets.
"""

from __future__ import annotations

import weakref

from kinexpand.coeffring import Poly
from kinexpand.uea import UEAElement, monomial_to_word

_NF_CACHES = weakref.WeakKeyDictionary()
_PAIR_RULES = weakref.WeakKeyDictionary()


def _pair_rule(alg, b: int, a: int):
    """Rewrite fragments for the inverted pair (b, a), b > a in basis order.

    Returns a list of (fragment, Poly) with x_b x_a = sum fragment * coeff.
    """
    rules = _PAIR_RULES.setdefault(alg, {})
    key = (b, a)
    if key not in rules:
        frags = [((a, b), Poly.const(alg.ctx, 1))]
        for k, c in alg.bracket_pair(b, a).items():
            frags.append(((k,), c))
        rules[key] = frags
    return rules[key]


def word_to_monomial(alg, word):
    exps = [0] * alg.dim
    for g in word:
        exps[g] += 1
    return tuple(exps)


def _first_inversion(word) -> int:
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            return i
    return -1


def normal_form_word(alg, word) -> dict:
    """Normal form of a single word as {monomial: Poly}, memoised.

    Iterative memoised DFS over the rewrite DAG: a word whose children are
    all resolved combines their normal forms; unresolved children are pushed
    first.  The DAG is acyclic because swaps keep length and strictly reduce
    inversions while bracket corrections shorten the word.
    """
    cache = _NF_CACHES.setdefault(alg, {})
    if word in cache:
        return cache[word]
    stack = [word]
    while stack:
        w = stack[-1]
        if w in cache:
            stack.pop()
            continue
        pos = _first_inversion(w)
        if pos < 0:
            cache[w] = {word_to_monomial(alg, w): Poly.const(alg.ctx, 1)}
            stack.pop()
            continue
        prefix, suffix = w[:pos], w[pos + 2 :]
        children = [
            (prefix + frag + suffix, coeff)
            for frag, coeff in _pair_rule(alg, w[pos], w[pos + 1])
        ]
        missing = [cw for cw, _ in children if cw not in cache]
        if missing:
            stack.extend(missing)
            continue
        combined: dict = {}
        for cw, coeff in children:
            for mono, c in cache[cw].items():
                s = combined.get(mono)
                s = coeff * c if s is None else s + coeff * c
                if s.is_zero():
                    combined.pop(mono, None)
                else:
                    combined[mono] = s
        cache[w] = combined
        stack.pop()
    return cache[word]


def product(a: UEAElement, b: UEAElement) -> UEAElement:
    """a * b with every term pair normal-ordered by the oracle kernel."""
    alg = a.alg
    out: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            coeff = c1 * c2
            word = monomial_to_word(m1) + monomial_to_word(m2)
            for mono, c in normal_form_word(alg, word).items():
                s = out.get(mono)
                s = coeff * c if s is None else s + coeff * c
                if s.is_zero():
                    out.pop(mono, None)
                else:
                    out[mono] = s
    return UEAElement(alg, out)
