package coord

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/eq"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/value"
)

// errNoGrounding aborts the grounding transaction without surfacing an error
// to the caller: the covered match simply has no satisfying assignment in the
// current database, so the search continues.
var errNoGrounding = errors.New("coord: no grounding")

// installResult carries what a successful match installed.
type installResult struct {
	members []*pending
	// perQuery maps member id → its outcome answers (parallel to its heads).
	perQuery map[uint64][]Answer
	// groundings is how many distinct assignments were installed (CHOOSE n).
	groundings int
}

// domainSource is one enumerable candidate set for a group of variable
// classes, obtained by evaluating a generator through the execution engine.
// A lazy source is a correlated generator — its subquery references other
// coordination variables — and is (re-)evaluated during backtracking once
// the variables it depends on are assigned.
type domainSource struct {
	classIdx []int // indexes into the class list, parallel to tuple positions
	tuples   []value.Tuple
	qid      uint64 // owning member
	predIdx  int    // index into the owner's Preds of the generating conjunct

	// Lazy (correlated) sources only:
	lazy bool
	sub  *sql.Select
}

// groundScratch holds the grounder's reusable buffers. Grounding runs under
// the trigger's home-shard round lock (inside a search), so the home shard's
// scratch is exclusively owned; everything here persists across backtrack
// levels, grounding attempts, and searches instead of being reallocated.
type groundScratch struct {
	vars     []eq.ScopedVar
	classOf  map[eq.ScopedVar]int
	assign   []value.Value
	assigned []bool
	covered  []bool
	sources  []domainSource
	lazy     []domainSource
	chosen   []domainSource
	idxArena []int   // backing storage for domainSource.classIdx slices
	touched  [][]int // per backtrack level
	seen     map[string]bool
	keyBuf   []byte
	env      *engine.Env
	grounds  [][]value.Value
}

// touchedAt returns the (reset) touched buffer of backtrack level i.
func (sc *groundScratch) touchedAt(i int) []int {
	for len(sc.touched) <= i {
		sc.touched = append(sc.touched, nil)
	}
	return sc.touched[i][:0]
}

// envFor returns the pooled environment reset and rebound to the member's
// currently assigned coordination variables.
func (sc *groundScratch) envFor(st *matchState, qid uint64, classOf map[eq.ScopedVar]int, assign []value.Value, assigned []bool) *engine.Env {
	if sc.env == nil {
		sc.env = engine.NewEnv()
	}
	sc.env.Reset()
	member := st.members[qid]
	// A template-bound member's residual predicates still carry symbolic
	// parameter slots; its vector rides on the query.
	sc.env.BindParams(member.q.Params)
	for _, v := range member.q.Vars {
		if ci, ok := classOf[eq.ScopedVar{QID: qid, Name: v}]; ok && (assigned == nil || assigned[ci]) {
			sc.env.BindVar(v, assign[ci])
		}
	}
	return sc.env
}

// ground takes a fully covered match and attempts to extend the unifier to a
// full assignment of every variable class such that every member query's
// residual predicates hold in the current database. On success it atomically
// installs one answer tuple per head atom per chosen grounding and delivers
// nothing yet (delivery happens after commit, in the coordinator).
//
// Grounding and installation run inside one transaction: generator
// subqueries read the base tables at the transaction's snapshot and the
// installation takes exclusive locks on the answer relations and commits
// at one timestamp, so the coordinated answers are consistent with the
// database state they were justified by — the paper's joint, atomic
// evaluation of matched queries.
func (c *Coordinator) ground(sh *coordShard, st *matchState) (*installResult, bool) {
	sh.stats.GroundingAttempts.Add(1)
	var res *installResult
	err := c.eng.Manager().RunAtomic(func(tx *txn.Txn) error {
		r, err := c.groundIn(tx, sh, st)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		return nil, false
	}
	return res, true
}

func (c *Coordinator) groundIn(tx *txn.Txn, sh *coordShard, st *matchState) (*installResult, error) {
	sc := &sh.gscratch
	// Collect every scoped variable of every member and group into classes.
	vars := sc.vars[:0]
	for _, qid := range st.order {
		for _, v := range st.members[qid].q.Vars {
			vars = append(vars, eq.ScopedVar{QID: qid, Name: v})
		}
	}
	sc.vars = vars
	classes := st.subst.Classes(vars)
	if sc.classOf == nil {
		sc.classOf = make(map[eq.ScopedVar]int, len(vars))
	} else {
		clear(sc.classOf)
	}
	classOf := sc.classOf
	for i, cl := range classes {
		for _, m := range cl.Members {
			classOf[m] = i
		}
	}

	// Assignment: one constant per class; pre-bound classes are fixed.
	assign := grow(sc.assign, len(classes))
	assigned := grow(sc.assigned, len(classes))
	sc.assign, sc.assigned = assign, assigned
	for i, cl := range classes {
		if cl.Bound {
			assign[i] = cl.Const
			assigned[i] = true
		}
	}

	// Evaluate generators into domain sources for the unassigned classes.
	sources, lazySources, err := c.collectSources(tx, st, sc, classOf)
	if err != nil {
		return nil, err
	}

	// Greedy cover: every unassigned class needs at least one source.
	// Correlated (lazy) sources cover their classes too, but are ordered
	// after every independent source so their inputs are assigned first.
	chosen, err := chooseSources(sc, classes, assigned, sources, lazySources, c.opts.GroundSmallestFirst)
	if err != nil {
		return nil, err
	}

	// Nondeterministic choice (§2.1: "the system nondeterministically
	// chooses either flight 122 or 123"): shuffle candidate tuples.
	for _, s := range chosen {
		sh.shuffle(s.tuples)
	}

	want := c.chooseCount(st)
	groundings := sc.grounds[:0]
	defer func() { sc.grounds = groundings[:0] }()
	if sc.seen == nil {
		sc.seen = make(map[string]bool)
	} else {
		clear(sc.seen)
	}
	seen := sc.seen // dedup: CHOOSE n wants n DISTINCT answers

	var backtrack func(i int) bool
	backtrack = func(i int) bool {
		if i == len(chosen) {
			kb := value.Tuple(assign).AppendKey(sc.keyBuf[:0])
			sc.keyBuf = kb
			if seen[string(kb)] {
				return false
			}
			if !c.checkFilters(tx, st, sc, classOf, assign, sources) {
				return false
			}
			if !c.checkNegConstraints(st, classOf, assign, groundings) {
				return false
			}
			seen[string(kb)] = true
			g := make([]value.Value, len(assign))
			copy(g, assign)
			groundings = append(groundings, g)
			return len(groundings) >= want
		}
		src := chosen[i]
		tuples := src.tuples
		if src.lazy {
			// Evaluate the correlated generator under the current partial
			// assignment of its owner's variables.
			env := sc.envFor(st, src.qid, classOf, assign, assigned)
			r, err := c.eng.EvalSelect(tx, src.sub, env)
			if err != nil || len(r.Cols) != len(src.classIdx) {
				// Still-unbound dependency, missing table or arity mismatch:
				// this branch cannot ground.
				return false
			}
			tuples = r.Rows
			sh.shuffle(tuples)
		}
		for _, tup := range tuples {
			// Tentatively assign this source's classes, respecting earlier
			// assignments (joint consistency).
			touched := sc.touchedAt(i)
			ok := true
			for k, ci := range src.classIdx {
				if assigned[ci] {
					if !assign[ci].Identical(tup[k]) {
						ok = false
						break
					}
					continue
				}
				assign[ci] = tup[k]
				assigned[ci] = true
				touched = append(touched, ci)
			}
			sc.touched[i] = touched
			if ok && backtrack(i+1) {
				// Keep going for more groundings unless done.
				for _, ci := range touched {
					assigned[ci] = false
				}
				if len(groundings) >= want {
					return true
				}
				continue
			}
			for _, ci := range touched {
				assigned[ci] = false
			}
		}
		return len(groundings) >= want
	}
	backtrack(0)

	// All-constant matches (no unbound classes, no sources) reach here with
	// chosen == nil; backtrack(0) handled them via the i==len(chosen) case.
	if len(groundings) == 0 {
		return nil, errNoGrounding
	}

	// Install: one answer tuple per head atom per grounding, atomically.
	res := &installResult{
		members:    make([]*pending, 0, len(st.order)),
		perQuery:   make(map[uint64][]Answer, len(st.order)),
		groundings: len(groundings),
	}
	for _, qid := range st.order {
		member := st.members[qid]
		res.members = append(res.members, member)
		answersForQ := make([]Answer, len(member.q.Heads))
		for hi, h := range member.q.Heads {
			answersForQ[hi].Relation = h.Display
			for _, g := range groundings {
				tup, err := resolveHead(st, qid, h, classOf, g)
				if err != nil {
					return nil, err
				}
				if err := c.store.Install(tx, h.Display, tup); err != nil {
					return nil, err
				}
				answersForQ[hi].Tuples = append(answersForQ[hi].Tuples, tup)
			}
		}
		res.perQuery[qid] = answersForQ
	}
	return res, nil
}

// grow resizes s to n zeroed entries, reusing capacity when possible.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// collectSources evaluates each member's generators into candidate sets.
// Generators whose subquery references still-unbound coordination variables
// (correlated generators) cannot be enumerated up front; they are returned
// separately as lazy sources and evaluated during backtracking once their
// inputs are assigned. Source slices and classIdx storage live in the shard
// scratch, reused across grounding attempts.
func (c *Coordinator) collectSources(tx *txn.Txn, st *matchState, sc *groundScratch, classOf map[eq.ScopedVar]int) (sources, lazySources []domainSource, err error) {
	sources, lazySources = sc.sources[:0], sc.lazy[:0]
	arena := sc.idxArena[:0]
	defer func() { sc.sources, sc.lazy, sc.idxArena = sources[:0], lazySources[:0], arena }()
	for _, qid := range st.order {
		member := st.members[qid]
		for _, g := range member.q.Generators {
			start := len(arena)
			bad := false
			for _, v := range g.Vars {
				ci, ok := classOf[eq.ScopedVar{QID: qid, Name: v}]
				if !ok {
					bad = true
					break
				}
				arena = append(arena, ci)
			}
			if bad {
				return nil, nil, fmt.Errorf("coord: internal: variable %s has no class in %s", g.Vars, member.q.Source)
			}
			idx := arena[start:len(arena):len(arena)]
			var tuples []value.Tuple
			if g.Sub != nil {
				if sc.env == nil {
					sc.env = engine.NewEnv()
				}
				sc.env.Reset()
				sc.env.BindParams(member.q.Params)
				r, err := c.eng.EvalSelect(tx, g.Sub, sc.env)
				if err != nil {
					if errors.Is(err, engine.ErrUnboundVariable) {
						lazySources = append(lazySources, domainSource{
							classIdx: idx, lazy: true, sub: g.Sub, qid: qid, predIdx: g.Pred,
						})
						continue
					}
					return nil, nil, err
				}
				if len(r.Cols) != len(g.Vars) {
					return nil, nil, fmt.Errorf("coord: generator arity %d vs %d in %s", len(r.Cols), len(g.Vars), g)
				}
				tuples = r.Rows
			} else {
				tuples = g.Tuples
			}
			sources = append(sources, domainSource{classIdx: idx, tuples: tuples, qid: qid, predIdx: g.Pred})
		}
	}
	return sources, lazySources, nil
}

// chooseSources selects, for every unassigned class, one domain source that
// enumerates it, then orders the selection (smallest candidate set first when
// smallestFirst — the A3 ablation knob). Independent sources are preferred;
// lazy (correlated) sources cover leftover classes and always run after every
// independent source, so their inputs are assigned when they evaluate.
func chooseSources(sc *groundScratch, classes []eq.Class, assigned []bool, sources, lazySources []domainSource, smallestFirst bool) ([]domainSource, error) {
	covered := grow(sc.covered, len(classes))
	sc.covered = covered
	for i := range classes {
		covered[i] = assigned[i]
	}
	chosen := sc.chosen[:0]
	defer func() { sc.chosen = chosen[:0] }()
	// Repeatedly pick independent sources until no more help.
	for {
		next := -1
		for si, s := range sources {
			helps := false
			for _, ci := range s.classIdx {
				if !covered[ci] {
					helps = true
					break
				}
			}
			if !helps {
				continue
			}
			if next == -1 {
				next = si
				continue
			}
			if smallestFirst && len(s.tuples) < len(sources[next].tuples) {
				next = si
			}
		}
		if next == -1 {
			break
		}
		chosen = append(chosen, sources[next])
		for _, ci := range sources[next].classIdx {
			covered[ci] = true
		}
	}
	if smallestFirst {
		sort.SliceStable(chosen, func(i, j int) bool {
			return len(chosen[i].tuples) < len(chosen[j].tuples)
		})
	}
	// Lazy sources cover what remains; they always run after every
	// independent source, so appending them here preserves that order.
	for _, s := range lazySources {
		helps := false
		for _, ci := range s.classIdx {
			if !covered[ci] {
				helps = true
				break
			}
		}
		if !helps {
			continue
		}
		chosen = append(chosen, s)
		for _, ci := range s.classIdx {
			covered[ci] = true
		}
	}
	for i := range classes {
		if !covered[i] {
			return nil, errNoGrounding // some class cannot be enumerated
		}
	}
	return chosen, nil
}

// checkFilters evaluates every member's residual predicates under the full
// assignment. Predicates whose generator was already evaluated into an
// (uncorrelated) domain source in this same transaction are checked by
// membership against that source's candidate set — the set IS the
// predicate's satisfying set, so re-running the subquery through the engine
// would recompute the identical rows. Everything else (correlated
// generators, non-generating predicates) is evaluated by the engine in the
// pooled environment rebound to that member's variable names.
func (c *Coordinator) checkFilters(tx *txn.Txn, st *matchState, sc *groundScratch, classOf map[eq.ScopedVar]int, assign []value.Value, sources []domainSource) bool {
	for _, qid := range st.order {
		member := st.members[qid]
		var env *engine.Env
		for pi, p := range member.q.Preds {
			if s := findSource(sources, qid, pi); s != nil {
				if !sourceContains(s, assign) {
					return false
				}
				continue
			}
			if env == nil {
				env = sc.envFor(st, qid, classOf, assign, nil)
			}
			v, err := c.eng.EvalExpr(tx, p, env)
			if err != nil || v.Type() != value.TypeBool || !v.Bool() {
				return false
			}
		}
	}
	return true
}

// findSource returns the uncorrelated domain source derived from predicate
// pi of member qid, if one exists. Sources are few (one per generating
// conjunct of the match), so a linear scan beats any index.
func findSource(sources []domainSource, qid uint64, pi int) *domainSource {
	for i := range sources {
		if sources[i].qid == qid && sources[i].predIdx == pi {
			return &sources[i]
		}
	}
	return nil
}

// sourceContains reports whether the assignment restricted to the source's
// classes appears among its candidate tuples, using the engine's IN
// comparison semantics (value.Equal positionally — so a NULL never matches,
// exactly as `IN (SELECT ...)` evaluates).
func sourceContains(s *domainSource, assign []value.Value) bool {
outer:
	for _, tup := range s.tuples {
		for k, ci := range s.classIdx {
			if !assign[ci].Equal(tup[k]) {
				continue outer
			}
		}
		return true
	}
	return false
}

// checkNegConstraints verifies NOT IN ANSWER exclusions against the
// installed answer relations, the groundings already accepted in this match,
// AND the tuples the current grounding itself would co-install — a member's
// exclusion must not be violated by a partner's (or its own) contribution in
// the same joint execution.
func (c *Coordinator) checkNegConstraints(st *matchState, classOf map[eq.ScopedVar]int, assign []value.Value, prior [][]value.Value) bool {
	pendingInstalls := append(append([][]value.Value{}, prior...), assign)
	for _, qid := range st.order {
		member := st.members[qid]
		for _, n := range member.q.NegConstraints {
			pattern, err := resolveAtom(st, qid, n, classOf, assign)
			if err != nil {
				return false
			}
			if len(c.store.Matching(pattern)) > 0 {
				return false
			}
			// Also exclude clashes with this match's own installs (earlier
			// groundings and the one under consideration).
			for _, g := range pendingInstalls {
				for _, qid2 := range st.order {
					m2 := st.members[qid2]
					for _, h := range m2.q.Heads {
						if h.Relation != pattern.Relation {
							continue
						}
						tup, err := resolveHead(st, qid2, h, classOf, g)
						if err != nil {
							continue
						}
						if groundAtomMatches(pattern, tup) {
							return false
						}
					}
				}
			}
		}
	}
	return true
}

func groundAtomMatches(pattern eq.Atom, tup value.Tuple) bool {
	if pattern.Arity() != len(tup) {
		return false
	}
	for i, t := range pattern.Terms {
		if t.IsVar {
			continue // unbound pattern position matches anything
		}
		if !t.Const.Identical(tup[i]) {
			return false
		}
	}
	return true
}

// resolveHead grounds a head atom under the class assignment.
func resolveHead(st *matchState, qid uint64, h eq.Atom, classOf map[eq.ScopedVar]int, assign []value.Value) (value.Tuple, error) {
	a, err := resolveAtom(st, qid, h, classOf, assign)
	if err != nil {
		return nil, err
	}
	if !a.Ground() {
		return nil, fmt.Errorf("coord: head %s not ground after assignment", a)
	}
	return a.GroundTuple(), nil
}

func resolveAtom(st *matchState, qid uint64, a eq.Atom, classOf map[eq.ScopedVar]int, assign []value.Value) (eq.Atom, error) {
	out := eq.Atom{Relation: a.Relation, Display: a.Display, Terms: make([]eq.Term, len(a.Terms))}
	for i, t := range a.Terms {
		if !t.IsVar {
			out.Terms[i] = t
			continue
		}
		if cnst, ok := st.subst.Binding(eq.ScopedVar{QID: qid, Name: t.Var}); ok {
			out.Terms[i] = eq.ConstTerm(cnst)
			continue
		}
		if ci, ok := classOf[eq.ScopedVar{QID: qid, Name: t.Var}]; ok && assign[ci].Type() != value.TypeNull {
			out.Terms[i] = eq.ConstTerm(assign[ci])
			continue
		}
		out.Terms[i] = t
	}
	return out, nil
}

// chooseCount returns how many groundings to install: the minimum CHOOSE
// across members — every participant must be willing to receive that many
// coordinated answers, and the paper's examples all use CHOOSE 1.
func (c *Coordinator) chooseCount(st *matchState) int {
	want := 0
	for _, qid := range st.order {
		ch := st.members[qid].q.Choose
		if ch < 1 {
			ch = 1
		}
		if want == 0 || ch < want {
			want = ch
		}
	}
	if want == 0 {
		want = 1
	}
	return want
}
