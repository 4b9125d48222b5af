"""Source-code frontends.

The paper's tool "can derive lower bounds directly from provided C code";
this package provides two independent frontends producing the same IR:

* :mod:`repro.frontend.python_frontend` -- restricted Python loop nests
  (the paper's listing syntax), parsed with the standard :mod:`ast` module;
* :mod:`repro.frontend.c_frontend` -- a C loop-nest subset, parsed with a
  hand-written lexer and recursive-descent parser.

:func:`parse_source` picks one by language name.
"""

from repro.frontend import c_frontend, python_frontend
from repro.frontend.c_frontend import parse_c
from repro.frontend.python_frontend import parse_python
from repro.ir.program import Program

__all__ = ["parse_python", "parse_c", "parse_source"]


def parse_source(source: str, *, language: str, name: str) -> Program:
    """Parse ``source`` with the ``"python"`` or ``"c"`` frontend.

    An unknown language is a ``ValueError``.
    """
    # each parser is looked up in its frontend module at call time, so a
    # wrapper installed there (a tracer, a test double) sees every parse
    if language == "python":
        return python_frontend.parse_python(source, name=name)
    if language == "c":
        return c_frontend.parse_c(source, name=name)
    raise ValueError(f"unknown language {language!r}")
