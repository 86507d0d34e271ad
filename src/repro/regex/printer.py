"""Rendering regular expressions as text.

Two concrete syntaxes are supported:

* *paper syntax* — the notation used throughout the paper:
  juxtaposition for concatenation, `` + `` for disjunction, postfix
  ``?``, ``+``, ``*``.  Example: ``((b? (a + c))+ d)+ e``.
* *DTD syntax* — what goes inside a ``<!ELEMENT ...>`` declaration:
  ``,`` for concatenation, ``|`` for disjunction.  Example:
  ``((b?,(a|c))+,d)+,e``.

Both renderings use the minimal number of parentheses given the usual
precedence (postfix > concatenation > disjunction) and can be parsed
back by :mod:`repro.regex.parser`.
"""

from __future__ import annotations

from ..errors import InternalError
from .ast import Concat, Disj, Inter, Opt, Plus, Regex, Repeat, Star, Sym

_PREC_DISJ = 0
_PREC_INTER = 1
_PREC_CONCAT = 2
_PREC_POSTFIX = 3


def _render(regex: Regex, parent_prec: int, concat_sep: str, disj_sep: str) -> str:
    if isinstance(regex, Sym):
        return regex.name
    if isinstance(regex, Concat):
        body = concat_sep.join(
            _render(part, _PREC_CONCAT, concat_sep, disj_sep) for part in regex.parts
        )
        return f"({body})" if parent_prec > _PREC_CONCAT else body
    if isinstance(regex, Inter):
        body = " & ".join(
            _render(branch, _PREC_INTER + 1, concat_sep, disj_sep)
            for branch in regex.branches
        )
        return f"({body})" if parent_prec > _PREC_INTER else body
    if isinstance(regex, Disj):
        body = disj_sep.join(
            _render(option, _PREC_DISJ, concat_sep, disj_sep)
            for option in regex.options
        )
        return f"({body})" if parent_prec > _PREC_DISJ else body
    if isinstance(regex, (Opt, Plus, Star, Repeat)):
        inner = _render(regex.inner, _PREC_POSTFIX + 1, concat_sep, disj_sep)
        if isinstance(regex, Opt):
            suffix = "?"
        elif isinstance(regex, Plus):
            suffix = "+"
        elif isinstance(regex, Star):
            suffix = "*"
        else:
            high = "" if regex.high is None else str(regex.high)
            suffix = f"{{{regex.low},{high}}}"
        body = inner + suffix
        # Directly stacked postfix operators need parentheses: ``a++``
        # would read as postfix-plus followed by a binary ``+``.
        if parent_prec > _PREC_POSTFIX:
            return f"({body})"
        return body
    raise InternalError(f"unknown regex node: {regex!r}")


def to_paper_syntax(regex: Regex) -> str:
    """Render in the paper's notation, e.g. ``((b? (a + c))+ d)+ e``."""
    return _render(regex, _PREC_DISJ, " ", " + ")


def to_dtd_syntax(regex: Regex) -> str:
    """Render as a DTD content model body, e.g. ``((b?,(a|c))+,d)+,e``.

    Note: a full ``<!ELEMENT>`` declaration requires the body to be
    wrapped in parentheses when it is not already; that is handled by
    :mod:`repro.xmlio.dtd`.
    """
    return _render(regex, _PREC_DISJ, ",", "|")
