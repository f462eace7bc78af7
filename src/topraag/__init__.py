"""topraag: exact arithmetic for right-angled Artin groups over computable
base-group monomorphisms, the finite balls of their coset cube complexes,
and integral cellular homology of the pieces."""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    CliqueFamily,
    SimplicialComplex,
    validate_graph,
    cliques,
    clique_complex,
    connected_components,
    graph_join,
    is_chordal,
)
from .models import (
    BaseModel,
    FiniteModel,
    ShiftModel,
    TrivialModel,
    model_from_config,
    s3_a3_model,
    INFINITE,
)
from .words import normal_form, exponent, is_balanced, parabolic_project, parse_word
from .elements import (
    NormalSequence,
    act_letter,
    to_normal_sequence,
    engine_for,
    verify_relations,
)
from .semidirect import SemidirectElement
from .britton import BrittonWord, hnn_retract
from .complexes import (
    CubeBall,
    build_ball,
    cayley_abels_degree,
    classify_intersection,
    detect_pockets,
    check_links,
    nerve_graph,
    valley_cells,
    enumerate_apartments,
    apartment_of_vertex,
    stabiliser_bruteforce,
    stabiliser_formula_set,
)
from .homology import (
    chain_complex,
    smith_normal_form,
    reduced_homology,
    homological_connectivity,
    sublevel_complex,
)
from .gradeddim import GradedDim, INF, UNKNOWN, kunneth, is_q_acyclic, sb_homology, hnn_euler
