"""The fixed terminal endpoint (1PC): a constraint on the free sweep.

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
decides such ties (``_TerminalEngine._rank``) is: fewer paths win; on
equal counts a usable-endpoint profile that dominates entry by entry
wins; equal profiles fall back to the lexicographic endpoint key;
incomparable profiles keep both covers.  ``run_terminal`` steps every
kept cover and prunes them (``_prune``), so each prefix answer is the
least count over the covers carried.
"""

from __future__ import annotations

from bisect import bisect_left

from .engine import InternalInvariantViolation, Path, PathCover, _Engine
from .graphcore import OrderedGraph


def _copy(dst, src):
    """Give dst src's cover; returns dst."""
    dst.nb1 = list(src.nb1)
    dst.nb2 = list(src.nb2)
    dst.pid = list(src.pid)
    dst.paths = {p: list(r) for p, r in src.paths.items()}
    dst.eps = list(src.eps)
    dst.next_pid = src.next_pid
    return dst


class _TerminalEngine(_Engine):
    """The free sweep with the terminal held an endpoint of its path."""

    def __init__(self, n, window, terminal, trace=None):
        super().__init__(n, window, trace)
        self.terminal = terminal
        self._snapshot = None     # the state before t; its _shadow is shared
        self._shadow = None       # the shadow, once this state asked for it
        self._shadow_upto = 0     # on the snapshot: how far the shadow went
        self._alts = []           # equal-count alternatives kept this step

    def clone(self, src=None):
        """A copy of src (default: this state) that carries this state's
        terminal (still unplaced, when src is the shadow)."""
        return _copy(_TerminalEngine(self.n, self.window, self.terminal),
                     src or self)

    def is_free_ep(self, v):
        # v assumed to be an endpoint of its path
        if v != self.terminal:
            return True
        rec = self.paths[self.pid[v]]
        return rec[0] == rec[1]  # trivial terminal path keeps a free side

    # ------------------------------------------------------------------
    # cover scoring and the carried alternatives

    def _key(self):
        """Rank of a whole cover, lower first: fewer paths, then the
        endpoint maxima compared from the highest down."""
        return (self.lam, tuple(-x for x in sorted(self._base_maxes())))

    def _usable_profile(self):
        """Highest endpoint that can still be extended, per path, sorted
        descending: the terminal end of a non-trivial terminal path can
        never take another vertex, so that path counts its other end."""
        t = self.terminal
        tp = self.pid[t]
        out = []
        for p, rec in self.paths.items():
            if p == tp and rec[0] != rec[1]:
                out.append(rec[0] + rec[1] - t)
            else:
                out.append(max(rec[0], rec[1]))
        out.sort(reverse=True)
        return out

    def _has_nesting(self):
        """Whether a free path's endpoint lies strictly inside another
        free path's endpoint span (the condition ``check_nesting`` flags
        on finished covers)."""
        tp = self.pid[self.terminal]
        spans = [(min(rec[0], rec[1]), max(rec[0], rec[1]))
                 for p, rec in self.paths.items() if p != tp]
        spans.sort()
        # sorted by low end, a nesting shows up as a low end inside the
        # span of some earlier path
        reach = 0
        for lo, hi in spans:
            if lo < reach:
                return True
            reach = max(reach, hi)
        return False

    def step(self, i):
        """Place vertex i; returns the equal-count alternatives this step
        kept beside the adopted cover, as independent engine states."""
        t, w = self.terminal, self.window[i]
        if i == t:
            self._snapshot = self.clone()
        mark = len(self.trace) if self.trace is not None else 0
        if i != t or not self.paths or w >= i:
            super().step(i)
        else:
            # the terminal itself: onto the lowest endpoint it sees
            lo = bisect_left(self.eps, w)
            if lo < len(self.eps):
                e = self.eps[lo]
                self._connect(e, i)
                self._log(i, "connect", f"terminal onto {e}")
            else:
                self._new_path(i)
                self._log(i, "new_path", "terminal isolated from endpoints")
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
        _copy(self, best[0])
        self._log(i, best[1], best[2])
        if carried is not None:
            self._alts.append(carried)

    # -- bridge ---------------------------------------------------------

    def _threading_plans(self, i, w, free_exp):
        """Merges of the terminal path with a free path that keep the
        terminal path's endpoint positions (cases where the two paths'
        endpoint spans nest or interleave)."""
        t = self.terminal
        tp = self.pid[t]
        # a trivial terminal path has other_end(tp, t) == t
        ell = self.other_end(tp, t) if tp else t
        if ell <= t:
            return []
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
        """The best plain merge: the pair bridge, or ("rebuild", tp, q,
        seq) threading the terminal path with path q when that leaves a
        better endpoint set."""
        pair = super()._bridge_action(i, w, free_exp)
        plans = self._threading_plans(i, w, free_exp)
        if not plans:
            return pair
        tops = tuple(max(self.paths[self.pid[e]][:2]) for e in pair[1:])
        score = self._score(self._base_maxes(), tops,
                            (max(self._merged_ends(pair)),))
        plans.insert(0, (score, 0, 0, pair))
        return max(plans, key=lambda t: (t[0], -t[1], -t[2]))[3]

    def _merged_ends(self, action):
        """The two ends of the path ``_apply_bridge(i, action)`` makes."""
        if action[0] == "pair":
            return tuple(self.other_end(self.pid[e], e) for e in action[1:])
        seq = action[3]
        return seq[0], seq[-1]

    def _apply_bridge(self, i, action):
        if action[0] == "pair":
            return super()._apply_bridge(i, action)
        _, tp, q, seq = action
        self._rebuild_merged(tp, q, seq)
        return f"threaded through terminal path (with path of {q})"

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

    # -- terminal detour --------------------------------------------------

    def _ensure_shadow(self, upto):
        snap = self._snapshot
        if snap._shadow is None:
            # built on the snapshot, which every carried state shares, so
            # they share one shadow however late it is first asked for;
            # a plain engine, it never places the terminal
            snap._shadow = _copy(_Engine(self.n, self.window), snap)
            snap._shadow_upto = self.terminal
        # the snapshot records the shadow's progress, so it is stepped only
        # as far as the furthest state asked
        sh = self._shadow = snap._shadow
        for k in range(snap._shadow_upto + 1, upto + 1):
            sh.step(k)
        snap._shadow_upto = max(snap._shadow_upto, upto)
        return sh

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
                trial = self.clone(var)
                trial._connect(e, t)
                fexp = trial._classify(w)
                if len(fexp) >= 2:
                    trial._do_bridge(i, w, fexp)
                    offer(trial, key + (e,))

        # extend a shadow path with v_i, then cap it with the terminal
        if shadow.lam == self.lam - 1 and self.sees(i, t):
            lo = bisect_left(shadow.eps, w)
            if lo < len(shadow.eps):
                e = shadow.eps[lo]
                trial = self.clone(shadow)
                trial._connect(e, i)
                trial._connect(i, t)
                offer(trial, (0, e))
        hang(shadow, (1,))
        if best is not None:
            return best[1]
        # restructure the shadow cover first: cut an edge at a seen
        # internal vertex (v_i sees nothing below w), optionally rejoin
        # one loose piece elsewhere (or rotate via the sibling's far end),
        # then hang the terminal and bridge
        for u, v in shadow._inner_edges(range(w, i)):
            base = self.clone(shadow)
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
            _copy(self, rescue)
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
        tp = self.pid[self.terminal]
        if not tp:
            return None
        # a restructure only pays when the terminal path holds one of the
        # two lowest endpoint ceilings
        tp_max = max(self.paths[tp][:2])
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
                fexp = var._classify(w)
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
        t = self.terminal
        tp = self.pid[t]
        if tp and t >= w and tp not in free_exp:
            # v_i sees the terminal end, which blocks the merge with the
            # one path it sees a free end of
            self._do_terminal_detour(i, w, free_exp)
            return
        composite = (self._restructure_trials(i, w)
                     if len(self.paths) >= 2 else None)
        action = self._connect_plan(i, w, free_exp)
        carried = None
        if composite is not None:
            planned = self.clone()
            best, carried = self._rank(
                (planned,) + planned._apply_plan(i, action),
                (composite, "connect_break",
                 "terminal detached and re-threaded, then bridge"))
            if best[0] is composite:
                self._take(i, best, carried)
                return
        # the shadow run may be a whole path ahead even though the terminal
        # is out of sight; rebuild from it when that strictly shrinks the
        # cover.  A shadow holding a vertex has a path, so it can be ahead
        # of one path only while empty: at i = 2 with t = 1
        if tp and (self.lam > 1 or i == 2):
            shadow = self._ensure_shadow(i - 1)
            if shadow.lam < self.lam:
                rescue = self._shadow_rescue(i, w)
                if rescue is not None and rescue.lam < self.lam:
                    _copy(self, rescue)
                    self._log(i, "connect_break",
                              "cover re-derived from the shadow run")
                    return
        self._log(i, *self._apply_plan(i, action))
        if carried is not None:
            self._alts.append(carried)

    # ------------------------------------------------------------------

    def check_state(self, upto):
        super().check_state(upto)
        t = self.terminal
        if self.pid[t] and t not in self.paths[self.pid[t]][:2]:
            raise InternalInvariantViolation("terminal is not an endpoint")

    def result(self, g_n) -> PathCover:
        t = self.terminal
        paths = [Path(self._walk(t), "terminal") if t in p.vertices else p
                 for p in super().result(g_n).paths]
        return PathCover(paths, t, g_n)


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


def run_terminal(g: OrderedGraph, terminal, trace=None,
                 validate_each_step=False) -> _TerminalEngine:
    """Sweep g with ``terminal`` held an endpoint; returns the engine
    state holding the answer.

    Equal-count ties that no endpoint rule can settle leave several
    states carried side by side; each prefix answer (``lam_history``) is
    the least count among them, and the returned state is the first
    carried one whose free paths do not nest."""
    states = [_TerminalEngine(g.n, g.window, terminal,
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
