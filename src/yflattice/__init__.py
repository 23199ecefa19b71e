"""Exact-arithmetic toolkit for the Young-Fibonacci lattice.

Words over {1, 2} graded by digit sum, their saturated-chain counts, the
binary tree of odd words, and residue statistics of chain counts modulo
prime powers.  Everything is computed in exact integer arithmetic.

The five modules and their public names load on first use (PEP 562), so a
command pays only for the modules it runs; __all__ joins the modules' own
lists in the order of _MODULES.
"""

_MODULES = ("core", "fstat", "macdonald", "primes", "residues")


def __getattr__(name: str) -> object:
    if name in _MODULES:
        from importlib import import_module

        return import_module(f"{__name__}.{name}")  # binds the module here too, so this runs once per module
    if name == "__all__":
        return [public for module in _MODULES for public in __getattr__(module).__all__]
    for module in map(__getattr__, _MODULES):
        if name in module.__all__:
            value = globals()[name] = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
