"""moneygas: statistical ensembles and exchange dynamics for money and credit.

The package namespace holds the names of the README quick tour plus
``mean_money_restricted``; everything else is imported from its module.
"""

from .dynamics import run_chain
from .ensembles import ModelSpec, mean_money_restricted, temperature_closed_form
from .estimation import fit_shifted_exponential
from .transform import carnot_cycle

__version__ = "0.1.0"

__all__ = [
    "ModelSpec",
    "carnot_cycle",
    "fit_shifted_exponential",
    "mean_money_restricted",
    "run_chain",
    "temperature_closed_form",
    "__version__",
]
