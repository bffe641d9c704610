"""Greedy minimum path cover engine: the free sweep.

The solver sweeps the vertices in the right-endpoint ordering and maintains
a set of vertex-disjoint paths over the processed prefix.  Each new vertex
is placed by one of five edits:

* connect       -- extend a path at a free endpoint;
* insert        -- splice between two consecutive path vertices;
* bridge        -- merge two paths through the new vertex (count drops);
* new_path      -- open a path, either trivially or by splitting an
                   existing path at a far-right internal vertex;
* connect_break -- a split as in new_path whose new endpoint immediately
                   connects onward, keeping the count unchanged.

Because earlier neighbours of vertex i form the contiguous window
[W(i), i-1], every adjacency question the engine asks is an index
comparison.  When several edits are legal the engine prefers fewer paths,
then the surviving endpoint set with the most distinct paths ending above
each index, compared from the low indices upward.

A fixed terminal endpoint (1PC) is a constraint on this sweep that lives
in ``intervalpc.terminal``; ``run_engine`` imports it only when a terminal
is set, so a free solve never loads it.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .graphcore import OrderedGraph

__all__ = [
    "InternalInvariantViolation",
    "Path",
    "PathCover",
    "solve_1pc",
    "epsilon_vector",
    "serialize_cover",
    "parse_cover",
]


class InternalInvariantViolation(Exception):
    """A state check failed after an engine operation: an engine bug."""


class Path:
    """One path of a finished cover."""

    __slots__ = ("vertices", "kind")

    def __init__(self, vertices, kind="free"):
        self.vertices = tuple(vertices)
        self.kind = kind

    @property
    def endpoints(self):
        return (self.vertices[0], self.vertices[-1])

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"Path({list(self.vertices)}, {self.kind})"

    def __eq__(self, other):
        return (isinstance(other, Path) and self.vertices == other.vertices
                and self.kind == other.kind)


class PathCover:
    """Immutable result: vertex-disjoint paths covering 1..n."""

    def __init__(self, paths, terminal, n):
        self.paths = tuple(paths)
        self.terminal = terminal
        self.n = n
        self.lam = len(self.paths)

    def __eq__(self, other):
        return (isinstance(other, PathCover) and self.paths == other.paths
                and self.terminal == other.terminal and self.n == other.n)

    def __repr__(self):
        return (f"PathCover(lam={self.lam}, terminal={self.terminal}, "
                f"n={self.n})")


def epsilon_vector(cover: PathCover) -> list[int]:
    """eps[k] = number of distinct paths with an endpoint of index > k.

    Entry 0 equals the cover size; entry n is zero.
    """
    n = cover.n
    eps = [0] * (n + 1)
    for p in cover.paths:
        hi = max(p.vertices[0], p.vertices[-1])
        for k in range(hi):
            eps[k] += 1
    return eps


def serialize_cover(cover: PathCover) -> str:
    term = cover.terminal if cover.terminal is not None else "none"
    lines = [f"lambda={cover.lam} terminal={term} n={cover.n}"]
    for k, p in enumerate(cover.paths, 1):
        flag = "T" if p.kind == "terminal" else "F"
        lines.append(f"P{k} {flag}: " + " ".join(str(v) for v in p.vertices))
    return "\n".join(lines) + "\n"


def parse_cover(text: str) -> PathCover:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty cover file")
    header = dict(tok.split("=", 1) for tok in lines[0].split())
    n = int(header["n"])
    term = header["terminal"]
    terminal = None if term == "none" else int(term)
    paths = []
    for ln in lines[1:]:
        head, colon, rest = ln.partition(":")
        verts = [int(tok) for tok in rest.split()]
        if not colon or not verts:
            raise ValueError(f"path line {ln.strip()!r} has no ':' or no vertices")
        kind = "terminal" if head.split()[-1:] == ["T"] else "free"
        paths.append(Path(verts, kind))
    cover = PathCover(paths, terminal, n)
    if cover.lam != int(header["lambda"]):
        raise ValueError("lambda in header does not match path count")
    return cover


class _Engine:
    """Mutable state of the free sweep over a fixed ordering."""

    def __init__(self, n, window, trace=None):
        self.n = n
        self.window = window
        self.trace = trace
        self.nb1 = [0] * (n + 1)   # up to two path neighbours per vertex
        self.nb2 = [0] * (n + 1)
        self.pid = [0] * (n + 1)
        self.paths = {}           # pid -> [end1, end2, size]
        self.eps = []             # sorted endpoint vertices
        self.next_pid = 1
        self.lam_history = []     # per-prefix answers, set by run_engine

    @property
    def lam(self):
        return len(self.paths)

    # ------------------------------------------------------------------
    # adjacency through the ordering window

    def sees(self, a, b):
        if a == b:
            return False
        if a > b:
            a, b = b, a
        return a >= self.window[b]

    # ------------------------------------------------------------------
    # bookkeeping helpers

    def _log(self, i, op, detail):
        if self.trace is not None:
            self.trace.append((i, op, detail))

    def _add_ep(self, v):
        insort(self.eps, v)

    def _rem_ep(self, v):
        idx = bisect_left(self.eps, v)
        del self.eps[idx]

    def _inner_edges(self, us):
        """Yield (u, x) for each internal vertex u in us and each of its
        two path neighbours x."""
        nb1, nb2 = self.nb1, self.nb2
        for u in us:
            if nb1[u] and nb2[u]:
                yield u, nb1[u]
                yield u, nb2[u]

    def _nb_add(self, v, x):
        if self.nb1[v] == 0:
            self.nb1[v] = x
        else:
            self.nb2[v] = x

    def _nb_remove(self, v, x):
        if self.nb1[v] == x:
            self.nb1[v] = self.nb2[v]
            self.nb2[v] = 0
        else:
            self.nb2[v] = 0

    def other_end(self, p, e):
        rec = self.paths[p]
        return rec[0] if rec[1] == e else rec[1]

    def is_free_ep(self, v):
        """Whether the endpoint v can take another path edge."""
        return True

    def _walk(self, start, prev=0, stop_after=None):
        """The path's vertices from start, walking away from its path
        neighbour prev (0: from an endpoint), up to stop_after if given."""
        seq = [start]
        cur = start
        while True:
            nxt = self.nb1[cur]
            if nxt == prev or nxt == 0:
                nxt = self.nb2[cur]
                if nxt == prev:
                    nxt = 0
            if nxt == 0:
                return seq
            seq.append(nxt)
            prev, cur = cur, nxt
            if stop_after is not None and cur == stop_after:
                return seq

    # ------------------------------------------------------------------
    # primitive operations

    def _new_path(self, v):
        p = self.next_pid
        self.next_pid += 1
        self.paths[p] = [v, v, 1]
        self.pid[v] = p
        self._add_ep(v)

    def _connect(self, e, v):
        """Extend the path at endpoint e with the fresh vertex v."""
        p = self.pid[e]
        rec = self.paths[p]
        self._nb_add(e, v)
        self.nb1[v] = e
        self.nb2[v] = 0
        self.pid[v] = p
        rec[2] += 1
        if rec[0] == rec[1]:
            rec[1] = v
        else:
            rec[0 if rec[0] == e else 1] = v
            self._rem_ep(e)
        self._add_ep(v)

    def _insert(self, a, b, v):
        self._nb_remove(a, b)
        self._nb_remove(b, a)
        self._nb_add(a, v)
        self._nb_add(b, v)
        self.nb1[v] = a
        self.nb2[v] = b
        self.pid[v] = self.pid[a]
        self.paths[self.pid[a]][2] += 1

    def _merge_records(self, p1, e1, p2, e2, extra):
        """Fuse the paths at consumed endpoints e1, e2; extra counts the
        bridging vertex if any.  Returns the surviving pid."""
        r1, r2 = self.paths[p1], self.paths[p2]
        o1, o2 = self.other_end(p1, e1), self.other_end(p2, e2)
        if r1[0] != r1[1]:
            self._rem_ep(e1)
        if r2[0] != r2[1]:
            self._rem_ep(e2)
        if r1[2] >= r2[2]:
            keep, drop = p1, p2
        else:
            keep, drop = p2, p1
        for u in self._walk(self.paths[drop][0]):
            self.pid[u] = keep
        self.paths[keep] = [o1, o2, r1[2] + r2[2] + extra]
        del self.paths[drop]
        return keep

    def _bridge_pair(self, e1, e2, v):
        """Merge the two paths ending at e1 and e2 through the fresh v."""
        p1, p2 = self.pid[e1], self.pid[e2]
        keep = self._merge_records(p1, e1, p2, e2, extra=1)
        self._nb_add(e1, v)
        self._nb_add(e2, v)
        self.nb1[v] = e1
        self.nb2[v] = e2
        self.pid[v] = keep

    def _join(self, e1, e2):
        """Add the edge between two existing free endpoints e1, e2."""
        p1, p2 = self.pid[e1], self.pid[e2]
        keep = self._merge_records(p1, e1, p2, e2, extra=0)
        self._nb_add(e1, e2)
        self._nb_add(e2, e1)
        return keep

    def _cut(self, u, x):
        """Remove the path edge u-x, splitting the path in two."""
        p = self.pid[u]
        rec = self.paths[p]
        u_was_internal = self.nb1[u] and self.nb2[u]
        x_was_internal = self.nb1[x] and self.nb2[x]
        self._nb_remove(u, x)
        self._nb_remove(x, u)
        seq_u = self._walk(u)
        far_u = seq_u[-1]
        size_u = len(seq_u)
        far_x = self.other_end(p, far_u) if size_u < rec[2] else u
        # u-side piece keeps p when it is the bigger one
        p2 = self.next_pid
        self.next_pid += 1
        u_pid, x_pid = (p, p2) if size_u >= rec[2] - size_u else (p2, p)
        self.paths[u_pid] = [far_u, u, size_u]
        self.paths[x_pid] = [x, far_x, rec[2] - size_u]
        for z in (self._walk(x) if x_pid == p2 else seq_u):
            self.pid[z] = p2
        if u_was_internal:
            self._add_ep(u)
        if x_was_internal:
            self._add_ep(x)
        return u_pid, x_pid

    # ------------------------------------------------------------------
    # endpoint-set scoring

    def _base_maxes(self):
        return [max(rec[0], rec[1]) for rec in self.paths.values()]

    @staticmethod
    def _score(base, removed, added):
        out = list(base)
        for r in removed:
            out.remove(r)
        out.extend(added)
        out.sort()
        return tuple(out)

    # ------------------------------------------------------------------
    # the per-vertex dispatch

    def step(self, i):
        """Place vertex i by one of the five edits."""
        if not self.paths:
            self._new_path(i)
            self._log(i, "new_path", "first vertex")
        elif self.window[i] >= i:
            self._new_path(i)
            self._log(i, "new_path", "isolated in prefix")
        else:
            w = self.window[i]
            free_exp = self._classify(w)
            if len(free_exp) >= 2:
                self._do_bridge_branch(i, w, free_exp)
            elif free_exp:
                self._do_connect_or_break(i, w, free_exp)
            else:
                self._do_newpath_branch(i, w)

    def _classify(self, w):
        """Per path with a free endpoint v_i sees (in [w, i)), its free
        seen endpoints, ascending."""
        free_exp = {}
        for v in self.eps[bisect_left(self.eps, w):]:
            if self.is_free_ep(v):
                free_exp.setdefault(self.pid[v], []).append(v)
        return free_exp

    # -- bridge ---------------------------------------------------------

    def _do_bridge_branch(self, i, w, free_exp):
        self._log(i, "bridge",
                  self._apply_bridge(i, self._bridge_action(i, w, free_exp)))

    def _bridge_action(self, i, w, free_exp):
        """The pair bridge ("pair", e1, e2): the path with the lowest top
        endpoint and, of the others whose leftmost seen endpoint is their
        lower end, the one seen lowest (else the path with the next
        lowest top)."""
        infos = []
        for p, seen in free_exp.items():
            rec = self.paths[p]
            c = seen[0]
            infos.append((max(rec[0], rec[1]), c, c == min(rec[0], rec[1])))
        infos.sort()
        a = infos[0]
        j_cands = [t for t in infos[1:] if t[2]]
        b = min(j_cands, key=lambda t: t[1]) if j_cands else infos[1]
        return ("pair", a[1], b[1])

    def _apply_bridge(self, i, action):
        """Merge two paths through v_i by ``action``; returns the log detail."""
        _, e1, e2 = action
        self._bridge_pair(e1, e2, i)
        return f"through {e1} and {e2}"

    # -- connect / connect_break -----------------------------------------

    def _do_connect_or_break(self, i, w, free_exp):
        self._log(i, *self._apply_plan(i, self._connect_plan(i, w, free_exp)))

    def _connect_plan(self, i, w, free_exp):
        """The one seen path's best edit: ("connect", e), or
        ("break", u, x, a_end) to split at u-x and bridge u, v_i and the
        path's lower end a_end."""
        (p_e, seen), = free_exp.items()
        target = seen[0]
        rec_e = self.paths[p_e]
        o_conn = target if rec_e[0] == rec_e[1] else rec_e[0] + rec_e[1] - target
        base = self._base_maxes()
        plans = [(self._score(base, (max(rec_e[0], rec_e[1]),),
                              (max(o_conn, i),)), 1, 0, ("connect", target))]
        a_end, b_end = min(rec_e[0], rec_e[1]), max(rec_e[0], rec_e[1])
        if (len(self.paths) >= 2 and a_end != b_end and a_end >= w
                and self.is_free_ep(a_end)):
            cap = max(max(r[0], r[1]) for q, r in self.paths.items()
                      if q != p_e)
            for u, x, far_u, far_x in self._splits(w, a_end, cap, p_e):
                rem = (max(far_u, far_x), b_end)
                add = (max(far_u, b_end), max(x, far_x))
                plans.append((self._score(base, rem, add), 0,
                              (-u, x), ("break", u, x, a_end)))
        return max(plans, key=lambda t: t[:3])[3]

    def _apply_plan(self, i, action):
        """Place v_i by a ``_connect_plan`` action; returns the log entry."""
        if action[0] == "connect":
            self._connect(action[1], i)
            return "connect", f"onto {action[1]}"
        _, u, x, a_end = action
        self._cut(u, x)
        self._bridge_pair(u, a_end, i)
        return "connect_break", f"split at ({u},{x}), joined {u}-{i}-{a_end}"

    def _splits(self, w, hi, cap, skip=0):
        """Yield (u, x, far_u, far_x) for each path edge a split can cut:
        u internal in [w, hi) and not on path ``skip``, x its
        path-neighbour with cap < x < u, and far_u, far_x the path's
        endpoints on u's and on x's side."""
        for u, x in self._inner_edges(range(w, hi)):
            if cap < x < u and self.pid[u] != skip:
                far_u = self._walk(u, x)[-1]
                rec = self.paths[self.pid[u]]
                yield u, x, far_u, rec[0] + rec[1] - far_u

    # -- new path branch ---------------------------------------------------

    def _do_newpath_branch(self, i, w):
        # insert between two consecutive seen neighbours; prefer the pair
        # with the highest top vertex so later vertices keep seeing it
        # (w >= 1, so a missing neighbour 0 never qualifies)
        best_pair = max(((u, x) for u in range(w, i)
                         for x in (self.nb1[u], self.nb2[u]) if w <= x < u),
                        default=None)
        if best_pair is not None:
            u, x = best_pair
            self._insert(u, x, i)
            self._log(i, "insert", f"between {x} and {u}")
            return
        base = self._base_maxes()
        # split-merge: break an edge at a seen internal vertex, rejoin the
        # loose piece to another path's endpoint, then connect here
        plans = []
        for u, a in self._inner_edges(range(w, i)):
            pu = self.pid[u]
            rec = self.paths[pu]
            far_a = rec[0] + rec[1] - self._walk(u, a)[-1]
            for q, qrec in self.paths.items():
                if q == pu:
                    continue
                for b in {qrec[0], qrec[1]}:
                    if not self.sees(a, b) or not self.is_free_ep(b):
                        continue
                    ob = qrec[0] + qrec[1] - b
                    rem = (max(rec[0], rec[1]), max(qrec[0], qrec[1]))
                    add = (i, max(far_a, ob))
                    plans.append((self._score(base, rem, add),
                                  (-u, -a, -b), ("splitmerge", u, a, b)))
        if plans:
            _, u, a, b = max(plans, key=lambda t: t[:2])[2]
            self._cut(u, a)
            self._join(a, b)
            self._connect(u, i)
            self._log(i, "split_merge", f"cut ({u},{a}), joined {a}-{b}, connected {i} to {u}")
            return
        # new_path: split at a far-right internal vertex, or open trivially
        cap = max((max(r[0], r[1]) for r in self.paths.values()), default=0)
        plans = [(self._score(base, (max(far_u, far_x),), (i, max(x, far_x))),
                  (-u, x), ("split", u, x))
                 for u, x, far_u, far_x in self._splits(w, i, cap)]
        if plans:
            _, u, x = max(plans, key=lambda t: t[:2])[2]
            self._cut(u, x)
            self._connect(u, i)
            self._log(i, "new_path", f"split at ({u},{x}), attached to {u}")
        else:
            self._new_path(i)
            self._log(i, "new_path", "trivial")

    # ------------------------------------------------------------------

    def check_state(self, upto):
        """Full structural audit; raises InternalInvariantViolation."""
        seen = set()
        for p, rec in self.paths.items():
            seq = self._walk(rec[0])
            if len(seq) != rec[2]:
                raise InternalInvariantViolation(f"path {p}: size mismatch")
            if seq[-1] != rec[1] and rec[2] > 1:
                raise InternalInvariantViolation(f"path {p}: endpoint record wrong")
            for v in seq:
                if self.pid[v] != p or v in seen:
                    raise InternalInvariantViolation(f"path {p}: label/disjointness")
                seen.add(v)
            for a, b in zip(seq, seq[1:]):
                if not self.sees(a, b):
                    raise InternalInvariantViolation(f"path {p}: edge ({a},{b}) missing")
        if seen != set(range(1, upto + 1)):
            raise InternalInvariantViolation("coverage of prefix broken")
        want_eps = sorted({e for rec in self.paths.values() for e in (rec[0], rec[1])})
        if want_eps != self.eps:
            raise InternalInvariantViolation("endpoint index out of sync")

    def result(self, g_n) -> PathCover:
        ends = sorted(min(rec[0], rec[1]) for rec in self.paths.values())
        return PathCover([Path(self._walk(lo)) for lo in ends], None, g_n)


def run_engine(g: OrderedGraph, terminal=None, trace=None,
               validate_each_step=False) -> _Engine:
    """Sweep g and return the engine state holding the answer, with each
    prefix answer in ``lam_history``.  A terminal solve is run by
    ``intervalpc.terminal``."""
    if terminal is not None:
        if not 1 <= terminal <= g.n:
            raise ValueError(f"terminal {terminal} out of range")
        from .terminal import run_terminal
        return run_terminal(g, terminal, trace, validate_each_step)
    eng = _Engine(g.n, g.window, trace=trace)
    for i in range(1, g.n + 1):
        eng.step(i)
        if validate_each_step:
            eng.check_state(i)
        eng.lam_history.append(eng.lam)
    return eng


def solve_1pc(g: OrderedGraph, terminal=None, trace=None,
              validate_each_step=False) -> PathCover:
    """Minimum path cover of g; with ``terminal`` set, that vertex is
    forced to be an endpoint of its path (a minimum 1PC)."""
    if g.n == 0:
        return PathCover([], terminal, 0)
    eng = run_engine(g, terminal, trace, validate_each_step)
    return eng.result(g.n)
