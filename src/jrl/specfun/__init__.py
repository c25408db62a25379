"""Special functions: Eisenstein-type series, elliptic kernels, Laurent
fits, Bernoulli numbers, the Jacobi slash action, and `specfun_kernel`,
the one dispatch from a kernel name to its function."""

from ..errors import DomainViolation
from .eisenstein import (
    eisenstein,
    eisenstein_tilde,
    eisenstein_twisted,
    p1_twisted_series_coefficient,
)
from .laurent import LaurentFit, laurent_coeffs_p1
from .points import (
    AnnulusPoint,
    ModularPoint,
    SL2Element,
    Truncation,
    TwistPair,
    default_truncation,
    phase,
)
from .series import bernoulli, stable_sum
from .slash import jacobi_slash
from .weierstrass import weier_p, weier_p_deformed, weier_p_tilde, weier_p_twisted


def specfun_kernel(name: str, args: dict, tr: Truncation) -> complex:
    """Evaluate a named kernel from its arguments: the one kernel dispatch.

    args holds "tau" (complex or [re, im]) and the order "m", plus "w" for
    the P kernels, "lam" for the twisted ones, "z" for the tilde ones and
    ("theta", "phi", "lam") for the deformed one; "one" is the constant 1.
    The kernels are looked up in this module by name, so a wrapper bound
    here sees every call."""
    if name == "one":
        return 1.0 + 0.0j
    tau = ModularPoint(complex(*args["tau"]) if isinstance(args["tau"], list) else args["tau"])
    if name == "weier_p":
        return weier_p(args["m"], AnnulusPoint(args["w"], tau), tr)
    if name == "weier_p_twisted":
        return weier_p_twisted(args["m"], args["lam"], AnnulusPoint(args["w"], tau), tr)
    if name == "weier_p_tilde":
        return weier_p_tilde(args["m"], AnnulusPoint(args["w"], tau), args["z"], tr)
    if name == "weier_p_deformed":
        tw = TwistPair(args["theta"], args["phi"], args["lam"])
        return weier_p_deformed(args["m"], tw, AnnulusPoint(args["w"], tau), tr)
    if name == "eisenstein":
        return eisenstein(args["m"], tau, tr)
    if name == "eisenstein_twisted":
        return eisenstein_twisted(args["m"], args["lam"], tau, tr)
    if name == "eisenstein_tilde":
        return eisenstein_tilde(args["m"], args["z"], tau, tr)
    raise DomainViolation(f"unknown kernel name {name!r}")


__all__ = [
    "AnnulusPoint",
    "LaurentFit",
    "ModularPoint",
    "SL2Element",
    "Truncation",
    "TwistPair",
    "bernoulli",
    "default_truncation",
    "eisenstein",
    "eisenstein_tilde",
    "eisenstein_twisted",
    "jacobi_slash",
    "laurent_coeffs_p1",
    "p1_twisted_series_coefficient",
    "phase",
    "specfun_kernel",
    "stable_sum",
    "weier_p",
    "weier_p_deformed",
    "weier_p_tilde",
    "weier_p_twisted",
]
