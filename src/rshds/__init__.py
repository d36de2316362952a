"""Construction and exact certification of difference sets disjoint from a subgroup.

Each name is imported from the submodule that defines it, as in
``from rshds.certify import check_rshds``: the package binds only
``__version__``.  Importing ``rshds`` loads no submodule, and each submodule
loads only the layers it uses, so a CLI process compiles only the modules
its subcommand runs.  The subgroup lattice, the structural screens and the
Cayley-table proof are in ``rshds.screen``: the ``screen`` and ``quotient``
commands, an ``auto-<order>`` subgroup token, a ``file:`` spec and
``rshds.fixtures`` load it, and ``construct``, ``certify``,
``export-hadamard`` and ``thm81`` on a gnk: or c4n: spec never do.  The
Schur-ring, spectrum and Hadamard certificates are in ``rshds.schur``, which
only a ``certify`` that runs one of them loads.
"""
__version__ = "0.1.0"
