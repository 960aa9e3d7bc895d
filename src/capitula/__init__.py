"""capitula: find convenient primes and certify that ideal classes of a
real quadratic field become principal in an explicit abelian compositum."""

__version__ = "0.2.0"

from .arith import (
    ResidueSymbol,
    is_prime,
    kronecker,
    power_residue_symbol,
    sqrt_mod,
)
from .bounds import BoundReport, herbrand_report, required_n
from .chebotarev import (
    AuxiliaryReduction,
    ExhaustedSearch,
    PrimeCandidate,
    check_conditions,
    find_auxiliary_prime,
    find_prime,
)
from .compositum import (
    CompositumOrder,
    IdealLatticeBasis,
    PrincipalityCertificate,
    RadiusSchedule,
    build_compositum,
    certify_principal,
    exact_norm,
    extend_ideal,
    verify_certificate,
)
from .cyclotomic import (
    CyclotomicSubfield,
    make_subfield,
    verify_subfield,
)
from .quadfield import (
    ClassGroup,
    FundamentalUnit,
    QuadIdeal,
    QuadraticField,
    class_group,
    fundamental_unit,
    is_principal,
    make_field,
    prime_ideal_above,
)

__all__ = [name for name in dir() if not name.startswith("_")]
