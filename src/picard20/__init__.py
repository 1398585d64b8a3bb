"""Exact arithmetic checks for singular elliptic K3 surfaces.

Subpackage map:
    arith     -- integer kernels: primality, Kronecker symbol, prime sieve,
                 factoring
    qforms    -- binary quadratic forms, class numbers, discriminants
    classgroups -- form class groups, discriminant scans, the form lemma
    heckecm   -- CM Hecke eigenvalue rules and twist matching
    ellsurf   -- elliptic surfaces over Q(t): fibers, reductions, point counts
    modelfile -- the model-file JSON reader and writer
    mwheights -- Mordell-Weil heights, Neron-Severi discriminants, the 13-row
                 classification table and its check
    atverify  -- Artin-Tate checks and batch verification
    models    -- the built-in surface registry
    cli       -- command line entry point
"""

from .errors import VerificationError

__version__ = "0.1.0"

__all__ = ["VerificationError", "__version__"]
