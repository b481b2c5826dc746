"""moneygas: statistical ensembles and exchange dynamics for money and credit.

The package namespace holds the names of the README quick tour plus
``mean_money_restricted``; everything else is imported from its module.
Each name is imported on first use (PEP 562), so ``import moneygas`` loads
neither numpy nor any submodule, and ``moneygas.cli`` can configure the
process before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each quick-tour name -> the submodule that defines it.
_HOMES = {
    "ModelSpec": "ensembles",
    "carnot_cycle": "transform",
    "fit_shifted_exponential": "estimation",
    "mean_money_restricted": "ensembles",
    "run_chain": "dynamics",
    "temperature_closed_form": "ensembles",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
