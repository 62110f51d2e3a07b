"""Spans and counters recorded from outside the program.

The tracer wraps the library functions under the names ``pommaret.cli``
calls them by, plus a few module globals that the hot loops call
(``verify.exact_rank``, ``verify.taylor_complex``), and counts calls of
``cellular.chain_vertices`` and ``Monomial.__init__``.  Every wrapped call
records a span (id, parent id, name, start, end); a layer's self time is its
span's duration minus the duration of its child spans.  The benchmark opens
one root span per CLI command, so spans of one command share a root.
"""

import inspect
import time

_COUNTERS = ("ideals.basis_size", "ideals.edges", "resolution.symbols",
             "resolution.nnz", "cellular.cells", "cellular.chain_vertices.calls",
             "morse.pairs", "morse.fill_in", "morse.safety_net",
             "morse.symbols_in", "morse.symbols_kept", "verify.strands",
             "verify.exact_rank.calls", "verify.rank_nnz",
             "monomials.constructed")


def _nnz(cplx):
    return sum(len(column) for diff in cplx.diffs[1:]
               for column in diff.values())


class Tracer:
    """Wraps the library on install(), records spans until uninstall()."""

    def __init__(self, cli):
        self.cli = cli
        self.spans = []      # [id, parent, name, t0, t1]
        self.stack = []
        self.counts = dict.fromkeys(_COUNTERS, 0)
        self._undo = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        rec = [len(self.spans), self.stack[-1] if self.stack else None,
               name, 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        rec[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = self.span(name, orig, *args, **kwargs)
            if after is not None:
                after(self.counts, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def _count(self, owner, attr, counter):
        orig = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    # -- installation --------------------------------------------------------

    def install(self):
        import pommaret.cellular as cellular
        import pommaret.monomials as monomials
        import pommaret.verify as verify
        cli = self.cli
        hooks = {
            "pommaret_basis": _after_basis,
            "ps_complex": _after_ps,
            "build_cell_complex": _after_cells,
            "check_exactness": _after_exactness,
        }
        self._wrap(cli, "parse_ideal", "cli.parse_ideal")
        for attr, obj in sorted(vars(cli).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ != cli.__name__
                    and obj.__module__.startswith("pommaret.")):
                layer = obj.__module__.rsplit(".", 1)[1]
                if attr == "minimize":
                    self._wrap_minimize()
                else:
                    self._wrap(cli, attr, "%s.%s" % (layer, attr),
                               hooks.get(attr))
        self._wrap(verify, "exact_rank", "verify.exact_rank", _after_rank)
        self._wrap(verify, "taylor_complex", "resolution.taylor_complex")
        self._count(cellular, "chain_vertices",
                    "cellular.chain_vertices.calls")
        self._count(monomials.Monomial, "__init__", "monomials.constructed")
        return self

    def _wrap_minimize(self):
        # the reducer always builds its cancellation trace; asking for it
        # only keeps it on the result, which is dropped again unless the
        # caller wanted it
        cli, orig = self.cli, self.cli.minimize

        def minimize(cplx, trace=False):
            result = self.span("morse.minimize", orig, cplx, trace=True)
            counts = self.counts
            counts["morse.pairs"] += len(result.matching)
            counts["morse.safety_net"] += result.safety_net_cancellations
            counts["morse.fill_in"] += sum(len(r["updated"])
                                           for r in result.trace)
            counts["morse.symbols_in"] += sum(cplx.ranks())
            counts["morse.symbols_kept"] += sum(result.ranks())
            if not trace:
                result.trace = None
            return result

        cli.minimize = minimize
        self._undo.append((cli, "minimize", orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def layer_times(self):
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _id, parent, _name, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {}
        for sid, _parent, name, t0, t1 in self.spans:
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += t1 - t0 - child[sid]
        return out

    def coverage(self, root):
        """Share of the root spans' wall time covered by their children."""
        wall = covered = 0.0
        for sid, parent, name, t0, t1 in self.spans:
            if name == root:
                wall += t1 - t0
            elif parent is not None and self.spans[parent][2] == root:
                covered += t1 - t0
        return covered / wall if wall else 0.0


def _after_basis(counts, args, basis):
    counts["ideals.basis_size"] += len(basis)
    counts["ideals.edges"] += len(basis.delta)


def _after_ps(counts, args, cplx):
    counts["resolution.symbols"] += sum(cplx.ranks())
    counts["resolution.nnz"] += _nnz(cplx)


def _after_cells(counts, args, cells):
    counts["cellular.cells"] += sum(cells.counts())


def _after_exactness(counts, args, report):
    counts["verify.strands"] += report.strands_checked


def _after_rank(counts, args, rank):
    counts["verify.exact_rank.calls"] += 1
    counts["verify.rank_nnz"] += sum(len(r) for r in args[0])
