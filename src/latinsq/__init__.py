"""Latin squares via the +/-1-move random walk: sampling, explicit move
paths between any two squares, and exhaustive/statistical verification."""

from .chain import ChainConfig, RngStream, sample
from .connect import (
    MoveSequence,
    cycle_swap,
    find_row_cycles,
    normalize_to_proper,
    swap_row_entries,
    transform_path,
)
from .core import (
    ImproperCell,
    InvalidSquare,
    LatinSquareError,
    SquareState,
    cube_from_grid,
    cyclic_square,
    validate,
)
from .moves import (
    IntercalateMove,
    InvalidMove,
    apply_move,
    enumerate_valid_moves,
)
from .oracle import (
    StateGraph,
    build_state_graph,
    check_connectivity_and_diameter,
    count_latin_squares,
    enumerate_latin_squares,
)
from .stats import UniformityReport, cell_symbol_frequency_test, chi_square_uniformity

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "ImproperCell",
    "IntercalateMove",
    "InvalidMove",
    "InvalidSquare",
    "LatinSquareError",
    "MoveSequence",
    "RngStream",
    "SquareState",
    "StateGraph",
    "UniformityReport",
    "apply_move",
    "build_state_graph",
    "cell_symbol_frequency_test",
    "check_connectivity_and_diameter",
    "chi_square_uniformity",
    "count_latin_squares",
    "cube_from_grid",
    "cycle_swap",
    "cyclic_square",
    "enumerate_latin_squares",
    "enumerate_valid_moves",
    "find_row_cycles",
    "normalize_to_proper",
    "sample",
    "swap_row_entries",
    "transform_path",
    "validate",
]
