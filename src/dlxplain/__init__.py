"""Rigorous abductive and contrastive explanations for decision lists.

Classify points, encode explanation queries to CNF, extract single
explanations, enumerate them all (hitting-set-driven or by blocking), take
the polynomial shortcut for pairwise-inconsistent rule lists, and verify
everything against exhaustive enumeration.
"""

from .core import (
    AXP,
    CXP,
    DecisionList,
    FeatureSpace,
    Instance,
    InputError,
    Literal,
    Rule,
    classify,
    eval_term,
    is_self_determining,
)
from .model_io import (
    GeneratorParams,
    ParseError,
    generate_random_dl,
    generate_random_instances,
    generate_restricted_dl,
    parse_instances,
    parse_model,
    serialize_model,
)
from .encoding import (
    Encoding,
    MultiClassUnsupported,
    VarMap,
    dump_dimacs,
    dump_wcnf,
    encode_alternative,
    encode_dlsat,
    encode_explanation_query,
)
from .oracle import OracleSession, OracleTimeout, SolveResult
from .explain import (
    ContractError,
    load_encoding,
    one_axp,
    one_cxp,
    reduce_dual,
)
from .enumeration import (
    Explainer,
    ExplanationReport,
    HittingSetOracle,
    enumerate_cxp_lbx,
    enumerate_marco,
)
from .horn import (
    HornQuery,
    NotRestricted,
    check_restricted,
    horn_axp,
    horn_axp_detailed,
)
from .bruteforce import (
    BoundExceeded,
    bf_all_axps,
    bf_all_cxps,
    bf_dlim,
    bf_dlsat,
    check_duality,
)
from .reductions import (
    CnfFormula,
    DnfFormula,
    cnf_to_dl,
    dnfim_to_dl,
)

__version__ = "0.1.0"
