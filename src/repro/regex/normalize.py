"""Normal forms for regular expressions.

The completeness proof of ``rewrite`` (Claim 1 in Section 5) works with
*normalized* SOREs: the transformations ``(s+)+ → s+``, ``s?? → s?``
and ``(s?)+ → (s+)?`` are applied until no superfluous operators
remain.  The rewrite system itself never emits a Kleene star; it
represents ``r*`` as ``(r+)?``, and a post-processing step contracts
that back to ``r*`` for display.

This module provides both directions plus a canonical form used for
"syntactically equal up to commutativity of +" comparisons (the success
criterion of the Figure 4 experiments, Theorem 5).
"""

from __future__ import annotations

from operator import is_

from .ast import (
    Concat,
    Disj,
    Inter,
    Opt,
    Plus,
    Regex,
    Repeat,
    Star,
    Sym,
    concat,
    disj,
    inter,
)
from .printer import to_paper_syntax


def _rebuild(regex: Regex, children: list[Regex]) -> Regex:
    """``regex`` over new ``children``; ``regex`` itself if none changed."""
    if all(map(is_, children, regex.children())):
        return regex
    if isinstance(regex, Concat):
        return concat(*children)
    if isinstance(regex, Disj):
        return disj(*children)
    if isinstance(regex, Inter):
        return inter(*children)
    if isinstance(regex, Opt):
        return Opt(children[0])
    if isinstance(regex, Plus):
        return Plus(children[0])
    if isinstance(regex, Star):
        return Star(children[0])
    if isinstance(regex, Repeat):
        return Repeat(children[0], regex.low, regex.high)
    return regex


def expand_stars(regex: Regex) -> Regex:
    """Replace every ``r*`` by ``(r+)?`` (the rewrite-internal form)."""
    if isinstance(regex, Sym):
        return regex
    children = [expand_stars(child) for child in regex.children()]
    if isinstance(regex, Star):
        return Opt(Plus(children[0]))
    return _rebuild(regex, children)


def contract_stars(regex: Regex) -> Regex:
    """Replace ``(r+)?`` and ``(r?)+`` by ``r*`` (Section 5 post-processing)."""
    if isinstance(regex, Sym):
        return regex
    children = [contract_stars(child) for child in regex.children()]
    rebuilt = _rebuild(regex, children)
    if isinstance(rebuilt, Opt) and isinstance(rebuilt.inner, Plus):
        return Star(rebuilt.inner.inner)
    if isinstance(rebuilt, Plus) and isinstance(rebuilt.inner, Opt):
        return Star(rebuilt.inner.inner)
    return rebuilt


def _factor_interval(factor: Regex) -> tuple[str, int, int | None] | None:
    """Recognize a single-symbol factor denoting ``{a^i : low <= i <= high}``.

    Returns ``(symbol, low, high)`` (``high is None`` meaning unbounded)
    or ``None`` when the factor is not of that shape.  Every quantifier
    the learners emit over a lone symbol is such a contiguous interval.
    """
    if isinstance(factor, Sym):
        return factor.name, 1, 1
    if isinstance(factor, (Opt, Plus, Star, Repeat)):
        inner = _factor_interval(factor.inner)
        if inner is None:
            return None
        name, low, high = inner
        if isinstance(factor, Opt):
            # {0} ∪ [low, high] is contiguous only when low <= 1.
            return (name, 0, high) if low <= 1 else None
        if isinstance(factor, (Plus, Star)):
            # Sums of k >= 1 copies of [low, high] tile [low, ∞) only
            # when consecutive multiples overlap: 2·low <= high + 1.
            if high is not None and 2 * low > high + 1:
                return None
            if isinstance(factor, Star) and low > 1:
                return None
            return name, 0 if isinstance(factor, Star) else low, None
        # Repeat: exact only over a plain symbol (inner interval {1}).
        if (low, high) != (1, 1):
            return None
        return name, factor.low, factor.high
    return None


def _interval_regex(name: str, low: int, high: int | None) -> Regex:
    base = Sym(name)
    if (low, high) == (1, 1):
        return base
    if (low, high) == (0, 1):
        return Opt(base)
    if low <= 1 and high is None:
        return Plus(base) if low == 1 else Star(base)
    return Repeat(base, low, high)


def contract_repeats(regex: Regex) -> Regex:
    """Collapse runs of same-symbol factors into bounded repetitions.

    The k-ORE learner produces concatenations like ``a a? a?`` (one
    factor per marked occurrence); adjacent factors over the same lone
    symbol whose count sets are contiguous intervals concatenate to the
    sumset interval, so ``a a? a?`` contracts to ``a{1,3}`` exactly.
    Runs of length one are left untouched.
    """
    if isinstance(regex, Sym):
        return regex
    children = [contract_repeats(child) for child in regex.children()]
    rebuilt = _rebuild(regex, children)
    if not isinstance(rebuilt, Concat):
        return rebuilt
    out: list[Regex] = []
    run: tuple[str, int, int | None] | None = None
    run_parts: list[Regex] = []

    def flush() -> None:
        nonlocal run
        if run is not None:
            if len(run_parts) == 1:
                out.append(run_parts[0])
            else:
                out.append(_interval_regex(*run))
        run = None
        run_parts.clear()

    for part in rebuilt.parts:
        interval = _factor_interval(part)
        if interval is None:
            flush()
            out.append(part)
            continue
        if run is not None and run[0] == interval[0]:
            low = run[1] + interval[1]
            high = (
                None
                if run[2] is None or interval[2] is None
                else run[2] + interval[2]
            )
            run = (interval[0], low, high)
            run_parts.append(part)
        else:
            flush()
            run = interval
            run_parts.append(part)
    flush()
    if len(out) == len(rebuilt.parts):  # no run collapsed: the same parts
        return rebuilt
    return concat(*out)


def normalize(regex: Regex) -> Regex:
    """Remove superfluous unary operators, keeping stars contracted.

    Rules applied to a fixpoint, bottom-up::

        r??     -> r?        (r+)+   -> r+       (r*)*  -> r*
        (r?)+   -> r*        (r+)?   -> r*       (r*)?  -> r*
        (r?)*   -> r*        (r+)*   -> r*       (r*)+  -> r*

    The result is language-equivalent and unique for the unary-operator
    layer: at most one of ``?``/``+``/``*`` wraps any subexpression.
    """
    if isinstance(regex, Sym):
        return regex
    children = [normalize(child) for child in regex.children()]
    rebuilt = _rebuild(regex, children)
    if isinstance(rebuilt, Opt):
        inner = rebuilt.inner
        if isinstance(inner, Opt):
            return inner
        if isinstance(inner, (Star,)):
            return inner
        if isinstance(inner, Plus):
            return Star(inner.inner)
        return rebuilt
    if isinstance(rebuilt, Plus):
        inner = rebuilt.inner
        if isinstance(inner, Plus):
            return inner
        if isinstance(inner, Star):
            return inner
        if isinstance(inner, Opt):
            return Star(inner.inner)
        return rebuilt
    if isinstance(rebuilt, Star):
        inner = rebuilt.inner
        if isinstance(inner, (Opt, Plus, Star)):
            return Star(normalize(inner.inner))
        return rebuilt
    return rebuilt


def _simplify_once(regex: Regex) -> Regex:
    if isinstance(regex, Sym):
        return regex
    children = [_simplify_once(child) for child in regex.children()]
    rebuilt = _rebuild(regex, children)
    # (x? + y)  ->  (x + y)?   — pull optionality out of a disjunction
    # so the parent operator can absorb it.
    if isinstance(rebuilt, Disj) and any(
        isinstance(option, Opt) for option in rebuilt.options
    ):
        stripped = [
            option.inner if isinstance(option, Opt) else option
            for option in rebuilt.options
        ]
        return Opt(disj(*stripped))
    # (x+ + y)+ -> (x + y)+  and  (x* + y)+ -> (x + y)*: under an outer
    # + or *, per-option repetition adds nothing.
    if isinstance(rebuilt, (Plus, Star)) and isinstance(rebuilt.inner, Disj):
        options = rebuilt.inner.options
        if any(isinstance(option, (Plus, Star)) for option in options):
            stripped = [
                option.inner if isinstance(option, (Plus, Star)) else option
                for option in options
            ]
            saw_star = any(isinstance(option, Star) for option in options)
            core = disj(*stripped)
            if isinstance(rebuilt, Star) or saw_star:
                return Star(core)
            return Plus(core)
    return rebuilt


def simplify(regex: Regex) -> Regex:
    """Language-preserving conciseness cleanup, to a fixpoint.

    Combines :func:`normalize` with two disjunction laws::

        (x? + y)   =  (x + y)?
        (x+ + y)+  =  (x + y)+        (x* + y)+  =  (x + y)*

    These patterns arise when the rewrite rules merge a plus-like state
    with plain states; the paper's reported expressions never contain
    them, so iDTD applies this cleanup to its final output.
    """
    current = normalize(regex)
    while True:
        simplified = normalize(_simplify_once(current))
        if simplified == current:
            return current
        current = simplified


def canonical(regex: Regex) -> Regex:
    """A canonical representative up to commutativity of ``+``.

    Normalizes unary operators and sorts the options of every
    disjunction by their rendered text.  Two expressions are
    "syntactically equal up to commutativity of +" (Theorem 5) iff
    their canonical forms are structurally equal.
    """
    regex = normalize(regex)

    def sort_disjunctions(node: Regex) -> Regex:
        if isinstance(node, Sym):
            return node
        children = [sort_disjunctions(child) for child in node.children()]
        rebuilt = _rebuild(node, children)
        if isinstance(rebuilt, Disj):
            ordered = sorted(rebuilt.options, key=to_paper_syntax)
            return disj(*ordered)
        if isinstance(rebuilt, Inter):
            # Shuffle is commutative too; sort branches the same way.
            ordered = sorted(rebuilt.branches, key=to_paper_syntax)
            return inter(*ordered)
        return rebuilt

    return sort_disjunctions(regex)


def syntactically_equal(first: Regex, second: Regex) -> bool:
    """Equality up to commutativity of ``+`` and operator normal form."""
    return canonical(first) == canonical(second)
