"""carlab: a toolkit for dynamic "classification, action" recognition.

Each stage of the classify-act loop is a module, and its names are
imported from it (``from carlab.lcpr import mine_lds``): ``lcpr`` mines
box-shaped logical dependencies and classifies by similarity voting,
``carsim`` simulates the classify-act recursion forward, ``poset`` and
``mdp`` validate class transitions and fit policies over traces, and
``boolcube`` computes backward-reachable regions in the Boolean domain.
``core`` holds the data model and file formats, ``synth`` the
generators, and ``cli`` the command line (``python -m carlab``).
"""
