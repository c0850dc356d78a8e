package pram

// Workspace scope: the one unwind path for pooled intermediates (see the
// contract in cancel.go). While Run executes, the pool-backed
// constructors (matrix.NewFromPool and friends, boolmat.NewFromPool/
// Identity/Mul) register each workspace with the machine's Scope, and a
// workspace's Release deregisters it. If Run unwinds it releases what is
// still registered; if it returns normally the survivors are the
// caller's results and are only forgotten. Outside Run, Machine.Scope is
// nil and a nil *Scope tracks nothing.
//
// The scope is orchestrator-only state: Track and a tracked workspace's
// Release run on the goroutine inside Run, never in a For body.
// Worker-side scratch (monge's per-task SMAWK slabs) is taken and
// returned within one body call and is not tracked. The backing slice is
// kept across Runs, so a reused machine tracks without allocating.

// Workspace is pooled storage a Scope can hand back on unwind. Release
// must call Lease.Return on the workspace's lease before recycling any
// part of the workspace (boolmat recycles whole Matrix headers), so the
// scope never holds a reference to storage that has changed owners.
type Workspace interface {
	Release()
}

// Lease is a workspace's registration in a Scope. Keep it as a field of
// the pooled type; the zero value is untracked.
type Lease struct {
	scope *Scope
	slot  int
}

// Return deregisters the workspace from its scope, if it has one. It is
// idempotent and a no-op on an untracked lease.
func (l *Lease) Return() {
	s := l.scope
	if s == nil {
		return
	}
	l.scope = nil
	s.live[l.slot] = scopeEntry{}
	// Kernels mostly release in reverse allocation order; trimming the
	// cleared tail keeps the live slice as short as the live set.
	n := len(s.live)
	for n > 0 && s.live[n-1].w == nil {
		n--
	}
	s.live = s.live[:n]
}

type scopeEntry struct {
	w Workspace
	l *Lease
}

// Scope is the set of pooled workspaces live in a Machine's Run.
type Scope struct {
	live  []scopeEntry
	depth int // nesting depth of Run; zero outside Run
}

// Track registers w, whose lease is l, with the scope. A nil scope
// tracks nothing.
func (s *Scope) Track(w Workspace, l *Lease) {
	if s == nil {
		return
	}
	l.scope, l.slot = s, len(s.live)
	s.live = append(s.live, scopeEntry{w, l})
}

// Scope returns the workspace scope of the Run currently executing on m,
// or nil outside Run.
func (m *Machine) Scope() *Scope {
	if m.scope.depth == 0 {
		return nil
	}
	return &m.scope
}

// enter opens a Run and returns the mark its exit unwinds to.
func (s *Scope) enter() int {
	s.depth++
	return len(s.live)
}

// exit closes a Run opened at mark. On unwind every workspace registered
// since mark is released, newest first; otherwise they are only
// forgotten, and ownership passes to Run's caller.
func (s *Scope) exit(mark int, unwind bool) {
	s.depth--
	if mark >= len(s.live) {
		return
	}
	// Release trims s.live as it goes; ents keeps the view of the
	// entries still to visit.
	ents := s.live[mark:]
	for i := len(ents) - 1; i >= 0; i-- {
		switch e := ents[i]; {
		case e.w == nil:
		case unwind:
			e.w.Release()
		default:
			e.l.scope = nil
		}
	}
	clear(ents)
	if len(s.live) > mark {
		s.live = s.live[:mark]
	}
}
