"""Word calculus and finite models for free N-dimensional pseudospaces."""

from .kernels import BACKEND
from .letters import Letter, commutes, contains, parse_letter
from .ordinals import CnfOrdinal, cnf_add, cnf_cmp, parse_cnf
from .space import BOTTOM, TOP, ColoredSpace
from .words import Word, concat_reduce, normal_form, parse_word, reduce

__all__ = [
    "BACKEND",
    "BOTTOM",
    "TOP",
    "CnfOrdinal",
    "ColoredSpace",
    "Letter",
    "Word",
    "cnf_add",
    "cnf_cmp",
    "commutes",
    "concat_reduce",
    "contains",
    "normal_form",
    "parse_cnf",
    "parse_letter",
    "parse_word",
    "reduce",
]

__version__ = "0.1.0"
