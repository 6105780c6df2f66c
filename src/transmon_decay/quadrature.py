"""Benchmark hook only: no module of the package imports this one.

The FULL lattice sum, its tolerances (``QuadratureSettings``) and its error
type (``QuadratureError``) live in ``spectrum``.  The generic adaptive and
principal-value quadrature that the tests compare against lives in
``tests/reference_routes.py``.
"""


# Only perfbench/tracing.py binds this attribute (a stand-in that counts quad
# calls); no code in the package reads it.  ROADMAP 5(j) retires it.
def __getattr__(name: str):
    if name == "integrate":
        from scipy import integrate

        globals()["integrate"] = integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
