"""The word-rewriting normal-ordering kernel, kept as a test oracle.

This is the kernel ``kinexpand.uea`` used before the generator-into-monomial
product replaced it, unchanged except that its two memo tables live here,
keyed weakly by algebra, instead of on the algebra instance, and that it
builds monomials from words itself.  It shares no code with the current
kernel beyond ``LieAlgebra.bracket_pair``, ``Poly`` arithmetic and
``monomial_to_word``: it rewrites the leftmost out-of-order adjacent pair
x_b x_a (b after a in basis order) into x_a x_b + [x_b, x_a] and memoises
every word it meets; a coefficient 1 is not multiplied.  A product folds each right monomial into the left
element one letter at a time, so the rewriter only ever orders a sorted
word followed by one letter.
"""

from __future__ import annotations

import weakref
from operator import itemgetter

from kinexpand.coeffring import Poly
from kinexpand.uea import UEAElement, monomial_to_word

_NF_CACHES = weakref.WeakKeyDictionary()
_PAIR_RULES = weakref.WeakKeyDictionary()


def _pair_rule(alg, b: int, a: int, rules: dict):
    """Rewrite fragments for the inverted pair (b, a), b > a in basis order.

    Returns a list of (fragment, Poly) with x_b x_a = sum fragment * coeff;
    ``rules`` is the algebra's memo of them.
    """
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
    rules = _PAIR_RULES.setdefault(alg, {})
    unit = {alg.ctx.zero: 1}
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
            for frag, coeff in _pair_rule(alg, w[pos], w[pos + 1], rules)
        ]
        missing = [cw for cw, _ in children if cw not in cache]
        if missing:
            stack.extend(missing)
            continue
        combined: dict = {}
        for cw, coeff in children:
            one = coeff._terms == unit  # the swapped pair's coefficient
            for mono, c in cache[cw].items():
                term = c if one else coeff * c
                s = combined.get(mono)
                s = term if s is None else s + term
                if s.is_zero():
                    combined.pop(mono, None)
                else:
                    combined[mono] = s
        cache[w] = combined
        stack.pop()
    return cache[word]


def _add_into(out: dict, mono, coeff: Poly) -> None:
    s = out.get(mono)
    s = coeff if s is None else s + coeff
    if s.is_zero():
        out.pop(mono, None)
    else:
        out[mono] = s


def _times_letter(alg, terms: dict, g: int, memo: dict) -> dict:
    """``terms * x_g``: each monomial's word with the letter appended,
    normal-ordered by :func:`normal_form_word`; ``memo`` keeps each
    monomial's normal form times ``x_g`` by ``(monomial, g)``."""
    unit = {alg.ctx.zero: 1}
    out: dict = {}
    for mono, coeff in terms.items():
        nf = memo.get((mono, g))
        if nf is None:
            nf = memo[mono, g] = normal_form_word(alg, monomial_to_word(mono) + (g,))
        for m, c in nf.items():
            _add_into(out, m, coeff if c._terms == unit else coeff * c)
    return out


def product(a: UEAElement, b: UEAElement) -> UEAElement:
    """a * b: each right monomial folded into the left element letter by
    letter, every step normal-ordered by the oracle's rewriter.  The right
    monomials' words are taken in sorted order, so a fold starts from the
    longest prefix it shares with the word before."""
    alg = a.alg
    out: dict = {}
    memo: dict = {}
    folds = [dict(a.terms)]  # a times the first k letters of the last word
    last = ()
    words = sorted(
        ((monomial_to_word(m), c) for m, c in b.terms.items()), key=itemgetter(0)
    )
    for word, c2 in words:
        k = 0
        while k < min(len(word), len(last)) and word[k] == last[k]:
            k += 1
        del folds[k + 1 :]
        for g in word[k:]:
            folds.append(_times_letter(alg, folds[-1], g, memo))
        last = word
        for mono, c in folds[-1].items():
            _add_into(out, mono, c * c2)
    return UEAElement(alg, out)
