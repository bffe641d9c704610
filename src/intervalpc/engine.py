"""Greedy minimum path cover engine with one optional fixed endpoint.

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

A designated terminal vertex must stay an endpoint.  When the terminal
endpoint blocks a merge, the engine consults a shadow instance: a plain
terminal-free engine, forked lazily from the state just before the
terminal and stepped from the terminal's successor on, so it never steps
the terminal and solves the prefix without it.  When the shadow is one
path ahead, the engine adopts its cover and re-threads the terminal.
The shadow is stepped only up to where it is asked for: at a blocked
merge, and at a connect or split while the cover has two or more paths.
A shadow holding a vertex has a path, so it is never ahead of one path
except while empty, at v_2 with t = v_1.  It hangs off the snapshot,
so carried states share one shadow however late it is first built.
The terminal branches also weigh a composite edit (cut a path near v_i,
possibly rejoin a loose end, then bridge) against the plain one.  A
bridge that merges the last two paths skips that search when the plain
merge's free end is v_{i-1}: every composite is then one path ending at
t as well, ``_rank`` prefers it only for a higher free end, and v_i
lies inside every bridged path, so no free end tops v_{i-1}.

Once a terminal is set, endpoint dominance no longer settles every tie.
Two covers of equal count can have incomparable profiles of usable
endpoints (the terminal end of the terminal path takes no more vertices),
and the prefix may have no cover whose profile dominates all others;
which cover a later vertex needs is then not known yet.  The rule that
decides such ties (``_Engine._rank``) is: fewer paths win; on equal
counts a usable-endpoint profile that dominates entry by entry wins;
equal profiles fall back to the lexicographic endpoint key; incomparable
profiles keep both covers.  ``run_engine`` steps every kept cover and
prunes them (``_prune``), so each prefix answer is the least count over
the covers carried.
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
        head, _, rest = ln.partition(":")
        kind = "terminal" if head.split()[-1] == "T" else "free"
        verts = [int(tok) for tok in rest.split()]
        paths.append(Path(verts, kind))
    cover = PathCover(paths, terminal, n)
    if cover.lam != int(header["lambda"]):
        raise ValueError("lambda in header does not match path count")
    return cover


class _Engine:
    """Mutable engine state over a fixed ordering.

    The shadow is an instance with no terminal that is never stepped at
    the main instance's terminal: the terminal stays unplaced there (pid
    0, no path neighbours, not in ``eps``), which every scan skips.
    """

    def __init__(self, n, window, terminal=None, trace=None):
        self.n = n
        self.window = window
        self.terminal = terminal
        self.trace = trace
        self.nb1 = [0] * (n + 1)   # up to two path neighbours per vertex
        self.nb2 = [0] * (n + 1)
        self.pid = [0] * (n + 1)
        self.paths = {}           # pid -> [end1, end2, size]
        self.eps = []             # sorted endpoint vertices
        self.lam = 0
        self.terminal_pid = 0
        self.next_pid = 1
        self.lam_history = []     # per-prefix answers, set by run_engine
        self._snapshot = None     # the state before t; its _shadow is shared
        self._shadow = None       # the shadow, once this state asked for it
        self._shadow_upto = 0
        self._alts = []           # equal-count alternatives kept this step

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

    def _nbrs(self, v):
        return tuple(x for x in (self.nb1[v], self.nb2[v]) if x)

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
        # v assumed to be an endpoint of its path
        if v != self.terminal or self.pid[v] != self.terminal_pid:
            return True
        rec = self.paths[self.terminal_pid]
        return rec[0] == rec[1]  # trivial terminal path keeps a free side

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
        self.lam += 1
        if v == self.terminal:
            self.terminal_pid = p

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

    def _relabel(self, p_old, p_new):
        rec = self.paths[p_old]
        for u in self._walk(rec[0]):
            self.pid[u] = p_new

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
        self._relabel(drop, keep)
        self.paths[keep] = [o1, o2, r1[2] + r2[2] + extra]
        del self.paths[drop]
        self.lam -= 1
        if self.terminal_pid in (p1, p2):
            self.terminal_pid = keep
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
        if size_u >= rec[2] - size_u:
            self.paths[p] = [far_u, u, size_u]
            self.paths[p2] = [x, far_x, rec[2] - size_u]
            for z in self._walk(x):
                self.pid[z] = p2
            u_pid, x_pid = p, p2
        else:
            self.paths[p] = [x, far_x, rec[2] - size_u]
            self.paths[p2] = [far_u, u, size_u]
            for z in seq_u:
                self.pid[z] = p2
            u_pid, x_pid = p2, p
        if u_was_internal:
            self._add_ep(u)
        if x_was_internal:
            self._add_ep(x)
        self.lam += 1
        if self.terminal_pid == p and self.terminal is not None \
                and self.pid[self.terminal] != p:
            self.terminal_pid = self.pid[self.terminal]
        return u_pid, x_pid

    def _rebuild_merged(self, p1, p2, seq):
        """Replace paths p1, p2 by the explicit vertex sequence seq."""
        for p in (p1, p2):
            rec = self.paths[p]
            for e in {rec[0], rec[1]}:
                self._rem_ep(e)
        for idx, v in enumerate(seq):
            self.nb1[v] = seq[idx - 1] if idx > 0 else 0
            self.nb2[v] = seq[idx + 1] if idx + 1 < len(seq) else 0
            self.pid[v] = p1
        self.paths[p1] = [seq[0], seq[-1], len(seq)]
        del self.paths[p2]
        for e in {seq[0], seq[-1]}:
            self._add_ep(e)
        self.lam -= 1

    # ------------------------------------------------------------------
    # endpoint-set scoring

    def _base_maxes(self):
        return [max(rec[0], rec[1]) for rec in self.paths.values()]

    def _key(self):
        """Rank of a whole cover, lower first: fewer paths, then the
        endpoint maxima compared from the highest down."""
        return (self.lam, tuple(-x for x in sorted(self._base_maxes())))

    def _usable_profile(self):
        """Highest endpoint that can still be extended, per path, sorted
        descending: the terminal end of a non-trivial terminal path can
        never take another vertex, so that path counts its other end."""
        t = self.terminal
        out = []
        for p, rec in self.paths.items():
            if p == self.terminal_pid and rec[0] != rec[1]:
                out.append(rec[0] + rec[1] - t)
            else:
                out.append(max(rec[0], rec[1]))
        out.sort(reverse=True)
        return out

    def _has_nesting(self):
        """Whether a free path's endpoint lies strictly inside another
        free path's endpoint span (the condition ``check_nesting`` flags
        on finished covers)."""
        spans = [(min(rec[0], rec[1]), max(rec[0], rec[1]))
                 for p, rec in self.paths.items() if p != self.terminal_pid]
        spans.sort()
        # sorted by low end, a nesting shows up as a low end inside the
        # span of some earlier path
        reach = 0
        for lo, hi in spans:
            if lo < reach:
                return True
            reach = max(reach, hi)
        return False

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
        """Place vertex i; returns the equal-count alternatives this step
        kept beside the adopted cover, as independent engine states."""
        if self.terminal is not None and i == self.terminal:
            self._snapshot = self.clone()
        mark = len(self.trace) if self.trace is not None else 0
        if not self.paths:
            self._new_path(i)
            self._log(i, "new_path", "first vertex")
        else:
            w = self.window[i]
            if w >= i:
                self._new_path(i)
                self._log(i, "new_path", "isolated in prefix")
            elif i == self.terminal:
                lo = bisect_left(self.eps, w)
                if lo < len(self.eps):
                    e = self.eps[lo]
                    self._connect(e, i)
                    self.terminal_pid = self.pid[i]
                    self._log(i, "connect", f"terminal onto {e}")
                else:
                    self._new_path(i)
                    self._log(i, "new_path", "terminal isolated from endpoints")
            else:
                exposed, free_exp = self._classify(w)
                if len(exposed) >= 2 and len(free_exp) >= 2:
                    self._do_bridge_branch(i, w, free_exp)
                elif len(exposed) >= 2:
                    self._do_terminal_detour(i, w, free_exp)
                elif len(free_exp) == 1:
                    self._do_connect_or_break(i, w, free_exp)
                else:
                    self._do_newpath_branch(i, w)
        forks = [self._fork(src, mark, i, op, detail)
                 for src, op, detail in self._alts]
        self._alts = []
        return forks

    def _fork(self, src, mark, i, op, detail):
        """An independent state holding src's cover and this state's
        trace; it shares the snapshot, and with it the terminal-free
        shadow run."""
        f = src.clone()
        f._snapshot = self._snapshot
        f._shadow = self._shadow
        if self.trace is not None:
            f.trace = self.trace[:mark] + [(i, op, detail)]
        return f

    @staticmethod
    def _rank(first, second):
        """Order two candidate covers for one step, each given as
        (state, op, log detail); returns (best, carried), carried being
        the loser when it must be kept as an alternative, else None.

        A smaller path count wins.  On equal counts the usable-endpoint
        profiles decide when one dominates the other entry by entry; when
        they are equal, the lexicographic endpoint key decides.  When
        neither profile dominates, no rule can tell which cover a later
        vertex needs: the key's pick wins and the other is carried."""
        a, b = first, second
        if a[0]._key() > b[0]._key():
            a, b = b, a
        if a[0].lam == b[0].lam:
            pa, pb = a[0]._usable_profile(), b[0]._usable_profile()
            a_ge = all(x >= y for x, y in zip(pa, pb))
            b_ge = all(y >= x for x, y in zip(pa, pb))
            if b_ge and not a_ge:
                a, b = b, a
            elif not a_ge:
                return a, b
        return a, None

    def _take(self, i, best, carried):
        self._adopt(best[0])
        self._log(i, best[1], best[2])
        if carried is not None:
            self._alts.append(carried)

    def _classify(self, w):
        """The pids of the paths with an endpoint v_i sees (in [w, i)), and
        per such path with a free one its free seen endpoints, ascending."""
        exposed = set()
        free_exp = {}
        for v in self.eps[bisect_left(self.eps, w):]:
            exposed.add(self.pid[v])
            if self.is_free_ep(v):
                free_exp.setdefault(self.pid[v], []).append(v)
        return exposed, free_exp

    # -- bridge ---------------------------------------------------------

    def _threading_plans(self, i, w, free_exp):
        """Merges of the terminal path with a free path that keep the
        terminal path's endpoint positions (cases where the two paths'
        endpoint spans nest or interleave)."""
        tp, t = self.terminal_pid, self.terminal
        # a trivial terminal path has other_end(tp, t) == t
        if not tp or self.other_end(tp, t) <= t:
            return []
        ell = self.other_end(tp, t)
        base, plans = self._base_maxes(), []
        for q in free_exp:
            if q == tp:
                continue
            qrec = self.paths[q]
            qlo, qhi = min(qrec[0], qrec[1]), max(qrec[0], qrec[1])
            if qlo == qhi:
                continue
            if t < qlo and qhi < ell and self.sees(i, qlo):
                # free path nested inside the terminal span
                tp_seq = self._walk(t)
                pos = self._last_straddle(tp_seq, qhi)
                if pos is None:
                    continue
                q_seq = self._walk(qhi, stop_after=qlo)
                seq = tp_seq[:pos + 2] + q_seq + [i] + tp_seq[pos + 2:]
                rem, add = (qhi,), ()
            elif qlo < t and ell < qhi and self.sees(i, qlo):
                # terminal span nested inside the free path
                q_seq = self._walk(qlo)
                pos = self._last_straddle(q_seq, ell)
                if pos is None:
                    continue
                tp_seq = self._walk(t)
                c = q_seq[pos + 2]
                head = tp_seq + [q_seq[pos + 1]] + q_seq[pos::-1] + [i]
                if c < qhi:
                    seq = head + q_seq[pos + 2:]
                    rem, add = (ell,), ()
                else:
                    seq = head + q_seq[:pos + 1:-1]
                    rem, add = (ell, qhi), (c,)
            elif t < qlo < ell < qhi and w <= ell:
                # interleaved spans
                tp_seq = self._walk(t)
                pos = self._last_straddle(tp_seq, qlo)
                if pos is None:
                    continue
                q_seq = self._walk(qlo, stop_after=qhi)
                c = tp_seq[pos + 2]
                head = tp_seq[:pos + 2] + q_seq + [i]
                if self.sees(i, c):
                    seq = head + tp_seq[pos + 2:]
                    rem, add = (qhi,), ()
                else:
                    seq = head + tp_seq[:pos + 1:-1]
                    rem, add = (qhi, ell), (c,)
            else:
                continue
            plans.append((self._score(base, rem, add), 1, q,
                          ("rebuild", tp, q, seq)))
        return plans

    def _last_straddle(self, seq, value):
        """Last index p with seq[p] < value < seq[p+1] and a successor
        seq[p+2] > value; None when no such edge exists."""
        best = None
        for p in range(len(seq) - 2):
            if seq[p] < value < seq[p + 1] and seq[p + 2] > value:
                best = p
        return best

    def _do_bridge_branch(self, i, w, free_exp):
        """Bridge, letting a terminal detach-and-rejoin compete with the
        plain merge on the surviving endpoint set.  The plain merge drops a
        path, so ``_rank`` would keep it over any tier-2 trial.

        Merging the last two paths, every tier-1 trial is one path ending
        at t, like the plain merge, and ``_rank`` prefers it only for a
        higher free end.  v_i is inside every bridged path, so no free end
        tops v_{i-1}: a plain merge that ends there skips the search."""
        action = self._bridge_action(i, w, free_exp)
        if self.lam == 2 and i - 1 != self.terminal \
                and i - 1 in self._merged_ends(action):
            composite = None
        else:
            composite = self._restructure_trials(i, w, merges_only=True)
        if composite is None:
            self._log(i, "bridge", self._apply_bridge(i, action))
            return
        plain = self.clone()
        plain._apply_bridge(i, action)
        self._take(i, *self._rank(
            (plain, "bridge", "plain merge"),
            (composite, "bridge", "terminal detached and re-threaded, then bridge")))

    def _do_bridge(self, i, w, free_exp):
        """The best plain merge on a trial state, which logs nothing."""
        self._apply_bridge(i, self._bridge_action(i, w, free_exp))

    def _bridge_action(self, i, w, free_exp):
        """The best plain merge: ("pair", e1, e2) or ("rebuild", tp, q, seq).
        The pair bridges the path with the lowest top endpoint and, of the
        others whose leftmost seen endpoint is their lower end, the one
        seen lowest (else the path with the next lowest top)."""
        infos = []
        for p, seen in free_exp.items():
            rec = self.paths[p]
            c = seen[0]
            o = c if rec[0] == rec[1] else rec[0] + rec[1] - c
            lo, hi = min(rec[0], rec[1]), max(rec[0], rec[1])
            infos.append((hi, c, o, p, c == lo))
        infos.sort()
        a = infos[0]
        j_cands = [t for t in infos[1:] if t[4]]
        b = min(j_cands, key=lambda t: t[1]) if j_cands else infos[1]
        plans = [(self._score(self._base_maxes(), (a[0], b[0]),
                              (max(a[2], b[2]),)), 0, 0, ("pair", a[1], b[1]))]
        plans.extend(self._threading_plans(i, w, free_exp))
        return max(plans, key=lambda t: (t[0], -t[1], -t[2]))[3]

    def _merged_ends(self, action):
        """The two ends of the path ``_apply_bridge(i, action)`` makes."""
        if action[0] == "pair":
            return tuple(self.other_end(self.pid[e], e) for e in action[1:])
        seq = action[3]
        return seq[0], seq[-1]

    def _apply_bridge(self, i, action):
        """Merge two paths through v_i by ``action``; returns the log detail."""
        if action[0] == "pair":
            _, e1, e2 = action
            self._bridge_pair(e1, e2, i)
            return f"through {e1} and {e2}"
        _, tp, q, seq = action
        self._rebuild_merged(tp, q, seq)
        return f"threaded through terminal path (with path of {q})"

    # -- terminal detour --------------------------------------------------

    def _ensure_shadow(self, upto):
        snap = self._snapshot
        if snap._shadow is None:
            # built on the snapshot, which every carried state shares, so
            # they share one shadow however late it is first asked for
            sh = _Engine(self.n, self.window)
            sh._adopt(snap)   # no terminal_pid yet: the terminal is unplaced
            sh._shadow_upto = self.terminal
            snap._shadow = sh
        # the shadow records its own progress, so it is stepped only as far
        # as the furthest state asked
        sh = self._shadow = snap._shadow
        for k in range(sh._shadow_upto + 1, upto + 1):
            sh.step(k)
        sh._shadow_upto = max(sh._shadow_upto, upto)
        return sh

    def _adopt(self, src):
        self.nb1 = list(src.nb1)
        self.nb2 = list(src.nb2)
        self.pid = list(src.pid)
        self.paths = {p: list(r) for p, r in src.paths.items()}
        self.eps = list(src.eps)
        self.lam = src.lam
        self.next_pid = src.next_pid
        self.terminal_pid = src.terminal_pid

    def _shadow_rescue(self, i, w):
        """The best cover re-derived from the terminal-free shadow run:
        adopt its paths, re-place the terminal, place v_i.  Used when the
        terminal wedges the plain operations.  Trials are ranked by
        (``_key``, edit key), the first of equals winning; only the best
        is kept.  Returns that trial, or None."""
        t = self.terminal
        shadow = self._ensure_shadow(i - 1)
        best = None

        def offer(trial, key):
            nonlocal best
            rank = (trial._key(), key)
            if best is None or rank < best[0]:
                best = (rank, trial)

        def hang(var, key):
            # hang the terminal on an endpoint of var it sees, then bridge
            for e in var.eps:
                if not self.sees(t, e):
                    continue
                trial = var.clone(self.terminal)
                trial._connect(e, t)
                trial.terminal_pid = trial.pid[t]
                _, fexp = trial._classify(w)
                if len(fexp) >= 2:
                    trial._do_bridge(i, w, fexp)
                    offer(trial, key + (e,))

        # extend a shadow path with v_i, then cap it with the terminal
        if shadow.lam == self.lam - 1 and self.sees(i, t):
            lo = bisect_left(shadow.eps, w)
            if lo < len(shadow.eps):
                e = shadow.eps[lo]
                trial = shadow.clone(self.terminal)
                trial._connect(e, i)
                trial._connect(i, t)
                trial.terminal_pid = trial.pid[t]
                offer(trial, (0, e))
        hang(shadow, (1,))
        if best is not None:
            return best[1]
        # restructure the shadow cover first: cut an edge at a seen
        # internal vertex (v_i sees nothing below w), optionally rejoin
        # one loose piece elsewhere (or rotate via the sibling's far end),
        # then hang the terminal and bridge
        for u, v in shadow._inner_edges(range(w, i)):
            base = shadow.clone(self.terminal)
            base._cut(u, v)
            hang(base, (u, v, 0, 0))
            for key, joined in base._joins(u, v):
                hang(joined, key)
        return None if best is None else best[1]

    def _do_terminal_detour(self, i, w, free_exp):
        # baseline: connect at the blocked path's leftmost seen free
        # endpoint; a shadow rebuild must beat it on count
        (_, seen), = free_exp.items()
        rescue = self._shadow_rescue(i, w)
        # rebasing onto the shadow is justified only by a strictly smaller
        # cover; equal-count rebuilds can trade away structure the evolved
        # cover needs later
        if rescue is not None and rescue.lam < self.lam:
            self._adopt(rescue)
            self._log(i, "detour", "cover re-derived from the shadow run")
            return
        composite = self._restructure_trials(i, w)
        if composite is None:
            self._connect(seen[0], i)
            self._log(i, "connect", f"onto {seen[0]} (terminal endpoint blocked)")
            return
        # the composite re-threads the terminal path at the cost of the
        # connect's free endpoint: fewer paths win, then a dominating
        # usable-endpoint profile, then the endpoint key on equal
        # profiles; incomparable profiles carry both covers on
        conn = self.clone()
        conn._connect(seen[0], i)
        self._take(i, *self._rank(
            (conn, "connect", f"onto {seen[0]} (terminal endpoint blocked)"),
            (composite, "detour", "terminal detached and re-threaded, then bridge")))

    # -- connect / connect_break -----------------------------------------

    def _restructure_trials(self, i, w, merges_only=False):
        """Cut a path edge at a seen internal vertex, optionally rejoin a
        loose end to a free endpoint elsewhere (or to the sibling piece's
        far end, rotating the path), then bridge with v_i: edits needed
        only where the fixed terminal wedges the plain ones, and weighed
        against them by ``_rank``.  Returns the best state by (``_key``,
        edit key), the first of equals, or None; only the best is kept.

        A cut adds a path, a join and the bridge each remove one, so tier 1
        of ``_tier_trials`` ends one path below now and tier 2 level with
        it.  Count ranks first: tier 2 is scanned only when tier 1 yields
        no trial, and never with ``merges_only`` (for a caller whose plain
        edit already drops a path)."""
        if not self.terminal_pid:
            return None
        # a restructure only pays when the terminal path holds one of the
        # two lowest endpoint ceilings
        tp_max = max(self.paths[self.terminal_pid][:2])
        below = 0
        for rec in self.paths.values():
            below += max(rec[0], rec[1]) < tp_max
            if below > 1:
                return None
        for tier in ((1,) if merges_only else (1, 2)):
            best = min(self._tier_trials(i, w, tier), default=None,
                       key=lambda kv: (kv[1]._key(), kv[0]))
            if best is not None:
                return best[1]
        return None

    def _tier_trials(self, i, w, tier):
        """Yield (edit key, state) for each restructure trial of one tier,
        bridged with v_i: tier 1 cuts and joins, tier 2 only cuts or moves a
        second piece (cut, cut, join).  One base clone is alive at a time."""
        # candidate cut edges sit at seen internal vertices; scan from the
        # window's right edge and cap the scan on large instances
        cands = [u for u in range(i - 1, w - 1, -1)
                 if self.nb1[u] and self.nb2[u]]
        seen_edges = {}   # insertion-ordered set
        for u, v in self._inner_edges(cands[:16]):
            if (v, u) not in seen_edges:
                seen_edges[(u, v)] = None

        def transfers(u, v, base):
            if self.n <= 64:
                # second-level transfer feeding a loose end of the
                # first cut; exact search at oracle scales
                for u2, v2 in base._inner_edges(range(w, i)):
                    for l2 in (u2, v2):
                        o2 = v2 if l2 == u2 else u2
                        for b2 in (u, v):
                            if b2 == o2 or base.pid[b2] == base.pid[l2]:
                                continue
                            if not base.sees(l2, b2) \
                                    or not base.is_free_ep(b2):
                                continue
                            deep = base.clone()
                            deep._cut(u2, v2)
                            deep._join(l2, b2)
                            yield (u, v, u2, v2, l2, b2), deep
            yield (u, v, 0, 0), base   # last: the bridge mutates it

        for u, v in seen_edges:
            base = self.clone()
            base._cut(u, v)
            trials = (base._joins(u, v) if tier == 1
                      else transfers(u, v, base))
            for key, var in trials:
                _, fexp = var._classify(w)
                if len(fexp) >= 2:
                    var._do_bridge(i, w, fexp)
                    yield key, var

    def _joins(self, u, v):
        """Yield (edit key, state) for each rejoin after the cut of u-v:
        a loose end joined to a free endpoint it sees on another path,
        the far end of its sibling piece included (a rotation)."""
        for l_end in (u, v):
            other = v if l_end == u else u
            for b in self.eps:
                if self.pid[b] == self.pid[l_end] or b == other:
                    continue
                if not self.sees(l_end, b) or not self.is_free_ep(b):
                    continue
                joined = self.clone()
                joined._join(l_end, b)
                yield (u, v, l_end, b), joined

    def _do_connect_or_break(self, i, w, free_exp):
        (p_e, seen), = free_exp.items()
        composite = (self._restructure_trials(i, w)
                     if len(self.paths) >= 2 else None)
        target = seen[0]
        rec_e = self.paths[p_e]
        o_conn = target if rec_e[0] == rec_e[1] else rec_e[0] + rec_e[1] - target
        base = self._base_maxes()
        plans = [(self._score(base, (max(rec_e[0], rec_e[1]),),
                              (max(o_conn, i),)), 1, 0, ("connect", target))]
        a_end, b_end = min(rec_e[0], rec_e[1]), max(rec_e[0], rec_e[1])
        extra_ok = (len(self.paths) >= 2 and a_end != b_end and a_end >= w
                    and (p_e != self.terminal_pid or a_end != self.terminal))
        if extra_ok:
            cap = max(max(r[0], r[1]) for q, r in self.paths.items()
                      if q != p_e)
            for u, x, far_u, far_x in self._splits(w, a_end, cap, p_e):
                rem = (max(far_u, far_x), b_end)
                add = (max(far_u, b_end), max(x, far_x))
                plans.append((self._score(base, rem, add), 0,
                              (-u, x), ("break", u, x)))
        action = max(plans, key=lambda t: t[:3])[3]
        carried = None
        if composite is not None:
            planned = self.clone()
            planned._apply_plan(i, action, a_end)
            best, carried = self._rank(
                (planned,) + planned._plan_log(i, action, a_end),
                (composite, "connect_break",
                 "terminal detached and re-threaded, then bridge"))
            if best[0] is composite:
                self._take(i, best, carried)
                return
        # the shadow run may be a whole path ahead even though the terminal
        # is out of sight; rebuild from it when that strictly shrinks the
        # cover.  A shadow holding a vertex has a path, so it can be ahead
        # of one path only while empty: at i = 2 with t = 1
        if self.terminal_pid and (self.lam > 1 or i == 2):
            shadow = self._ensure_shadow(i - 1)
            if shadow.lam < self.lam:
                rescue = self._shadow_rescue(i, w)
                if rescue is not None and rescue.lam < self.lam:
                    self._adopt(rescue)
                    self._log(i, "connect_break",
                              "cover re-derived from the shadow run")
                    return
        self._apply_plan(i, action, a_end)
        self._log(i, *self._plan_log(i, action, a_end))
        if carried is not None:
            self._alts.append(carried)

    def _apply_plan(self, i, action, a_end):
        if action[0] == "connect":
            self._connect(action[1], i)
        else:
            _, u, x = action
            self._cut(u, x)
            self._bridge_pair(u, a_end, i)

    @staticmethod
    def _plan_log(i, action, a_end):
        if action[0] == "connect":
            return "connect", f"onto {action[1]}"
        _, u, x = action
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
        best_pair = max(((u, x) for u in range(w, i) for x in self._nbrs(u)
                         if w <= x < u), default=None)
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

    def clone(self, terminal=None):
        """A copy of this state; with terminal set, one that carries that
        terminal instead (still unplaced, when cloning the shadow)."""
        e = _Engine(self.n, self.window, terminal=terminal or self.terminal)
        e._adopt(self)
        return e

    def check_state(self, upto):
        """Full structural audit; raises InternalInvariantViolation."""
        seen = set()
        if self.lam != len(self.paths):
            raise InternalInvariantViolation("lambda != number of paths")
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
        if self.terminal is not None and self.pid[self.terminal]:
            if self.terminal_pid != self.pid[self.terminal]:
                raise InternalInvariantViolation("terminal path id stale")
            rec = self.paths[self.terminal_pid]
            if self.terminal not in (rec[0], rec[1]):
                raise InternalInvariantViolation("terminal is not an endpoint")

    def result(self, g_n) -> PathCover:
        out = []
        for p, rec in sorted(self.paths.items(),
                             key=lambda kv: min(kv[1][0], kv[1][1])):
            if p == self.terminal_pid and self.terminal is not None:
                seq = self._walk(self.terminal)
                out.append(Path(seq, "terminal"))
            else:
                out.append(Path(self._walk(min(rec[0], rec[1])), "free"))
        return PathCover(out, self.terminal, g_n)


def _prune(states):
    """Drop carried states that cannot be needed: those above the least
    path count, and those whose usable-endpoint profile is matched entry
    by entry by another state that nests no more than they do (on a full
    tie the earlier state stays).  Nesting counts because a nested cover
    cannot be the one returned, so it never stands in for a non-nested
    one."""
    lam = min(s.lam for s in states)
    states = [s for s in states if s.lam == lam]
    info = [(s._usable_profile(), s._has_nesting()) for s in states]
    kept = []
    for j, (prof, nested) in enumerate(info):
        covered = False
        for k, (other, o_nested) in enumerate(info):
            if k == j or (o_nested and not nested):
                continue
            if all(x >= y for x, y in zip(other, prof)) and (
                    k < j or other != prof or nested != o_nested):
                covered = True
                break
        if not covered:
            kept.append(states[j])
    return kept


def run_engine(g: OrderedGraph, terminal=None, trace=None,
               validate_each_step=False) -> _Engine:
    """Sweep g and return the engine state holding the answer.

    Equal-count ties that no endpoint rule can settle leave several
    states carried side by side; each prefix answer (``lam_history``) is
    the least count among them, and the returned state is the first
    carried one whose free paths do not nest."""
    if terminal is not None and not 1 <= terminal <= g.n:
        raise ValueError(f"terminal {terminal} out of range")
    states = [_Engine(g.n, g.window, terminal=terminal,
                      trace=[] if trace is not None else None)]
    history = []
    for i in range(1, g.n + 1):
        stepped = []
        for eng in states:
            stepped.append(eng)
            stepped.extend(eng.step(i))
        states = _prune(stepped) if len(stepped) > 1 else stepped
        if validate_each_step:
            for eng in states:
                eng.check_state(i)
        history.append(min(eng.lam for eng in states))
    best = next((eng for eng in states if not eng._has_nesting()), states[0])
    best.lam_history = history
    if trace is not None:
        trace.extend(best.trace)
    return best


def solve_1pc(g: OrderedGraph, terminal=None, trace=None,
              validate_each_step=False) -> PathCover:
    """Minimum path cover of g; with ``terminal`` set, that vertex is
    forced to be an endpoint of its path (a minimum 1PC)."""
    if g.n == 0:
        return PathCover([], terminal, 0)
    eng = run_engine(g, terminal, trace, validate_each_step)
    return eng.result(g.n)
