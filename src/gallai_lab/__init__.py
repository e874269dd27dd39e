"""Workbench for rainbow-triangle-free edge colorings of complete graphs."""

from .coloring import (
    MAX_VERTICES,
    BitGraph,
    ColoredCompleteGraph,
    VertexSubset,
    build,
    complete_monochromatic,
    induced,
    parse,
    relabel,
    serialize,
    substitute,
)
from .constructions import (
    ConstructionRecipe,
    build_extremal_odd,
    build_ramsey_cycle_lower,
    check_recipe,
    ramsey_formula,
    random_gallai,
)
from .detectors import (
    HAMILTON_CYCLE,
    MONO_CYCLE,
    MONO_PATH,
    RAINBOW_TRIANGLE,
    Witness,
    colored_path_split,
    dirac_hamiltonian,
    erdos_gallai_path,
    find_mono_cycle,
    find_mono_path,
    find_rainbow_triangle,
    validate_witness,
)
from .errors import (
    ArityMismatch,
    BadParameters,
    ColorOutOfRange,
    ColoringParseError,
    DegreePreconditionFailed,
    DiracPreconditionFailed,
    EmptySubset,
    GallaiLabError,
    HypothesisViolated,
    InvalidPartition,
    MissingPair,
    NotGallai,
    OverLimit,
    SizeLimitExceeded,
)
from .search import (
    AvoidanceProblem,
    CertificateCheck,
    SearchOutcome,
    SearchReport,
    SearchStats,
    enumerate_avoiding,
    exists_avoiding,
    reports_equivalent,
    search_gallai_ramsey,
    search_ramsey,
    verify_certificate,
)
from .structure import (
    GallaiPartition,
    PartitionReport,
    between_parts_cycle,
    gallai_partition,
    reconstruct,
    recolor_small_parts,
    reduced_graph,
    validate_partition,
)

__version__ = "0.1.0"
