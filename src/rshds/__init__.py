"""Construction and exact certification of difference sets disjoint from a subgroup.

Each name is imported from the submodule that defines it, as in
``from rshds.certify import check_rshds``: the package binds only
``__version__``.  Importing ``rshds`` or one of its submodules loads no other
layer, so a CLI process compiles only the modules its subcommand runs.
"""
__version__ = "0.1.0"
