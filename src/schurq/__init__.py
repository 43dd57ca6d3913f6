"""Skew Schur Q-function decompositions and multiplicity-freeness tests."""

from ._backend import backend_name
from ._kernel_py import ShapeTooLarge
from .partitions import (
    NotContained,
    NotSkew,
    TooManyCorners,
    contains,
    normalize_basic,
    parse_partition,
    shape_from_path,
    shape_path,
    shifted_diagram,
    skew_diagram,
)
from .tableaux import (
    Tableau,
    is_amenable,
    is_amenable_word,
    is_k_amenable_checklist,
    is_k_amenable_word,
    parse_word,
    reading_word,
    render_tableau,
)
from .coefficients import (
    coefficient,
    count_tableaux_bounded,
    decompose,
    decompose_row_strip,
    enumerate_amenable,
    enumerate_tableaux,
    expansion_from_json,
    expansion_json,
    expansion_text,
    is_multiplicity_free_bruteforce,
)
from .classifier import Classification, NotBasic, classify, decompose_special
from .transforms import (
    add_column,
    add_row,
    gamma_down,
    gamma_right,
    orthogonal_transpose,
    rotate,
    transpose,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "NotBasic",
    "NotContained",
    "NotSkew",
    "ShapeTooLarge",
    "Tableau",
    "TooManyCorners",
    "add_column",
    "add_row",
    "backend_name",
    "classify",
    "coefficient",
    "contains",
    "count_tableaux_bounded",
    "decompose",
    "decompose_row_strip",
    "decompose_special",
    "enumerate_amenable",
    "enumerate_tableaux",
    "expansion_from_json",
    "expansion_json",
    "expansion_text",
    "gamma_down",
    "gamma_right",
    "is_amenable",
    "is_amenable_word",
    "is_k_amenable_checklist",
    "is_k_amenable_word",
    "is_multiplicity_free_bruteforce",
    "normalize_basic",
    "orthogonal_transpose",
    "parse_partition",
    "parse_word",
    "reading_word",
    "render_tableau",
    "rotate",
    "run_suite",
    "shape_from_path",
    "shape_path",
    "shifted_diagram",
    "skew_diagram",
    "transpose",
]
