// Package workflow implements the three-step human workflow the paper's
// Lesson #1 identifies as what large-scale matching actually looks like:
//
//  1. SUMMARIZE(SA) and SUMMARIZE(SB) — build concept summaries
//  2. automated matching with interactive refinement, one concept at a
//     time via the sub-tree filter ("incremental schema matching")
//  3. post-matching analysis, exporting matches and non-matches
//
// A Session owns step 2: it turns a source summary into a task queue (one
// task per concept), supports assigning tasks to integration-team members
// (the paper's "modular task queues appropriate to each team member"),
// executes each increment with the match engine, routes candidates through
// a reviewer, and accounts for the human effort expended — the case study
// took "three days of effort, by two human integration engineers".
package workflow

import (
	"fmt"
	"sort"

	"harmony/internal/core"
	"harmony/internal/schema"
	"harmony/internal/summarize"
)

// TaskStatus is the lifecycle state of one concept-matching task.
type TaskStatus string

// Task states.
const (
	TaskPending    TaskStatus = "pending"
	TaskInProgress TaskStatus = "in-progress"
	TaskDone       TaskStatus = "done"
)

// Decision is a reviewer's verdict on one candidate correspondence.
type Decision struct {
	Accept bool
	// Annotation is an optional semantic refinement (is-a, part-of, ...).
	Annotation string
}

// Reviewer judges candidate correspondences; implementations may be
// interactive UIs, scripted oracles (package eval), or policy stubs.
type Reviewer interface {
	// Name identifies the team member.
	Name() string
	// Review judges one candidate.
	Review(src, dst *schema.Element, score float64) Decision
}

// ValidatedMatch is an accepted correspondence with its review provenance —
// the unit of knowledge the workflow produces.
type ValidatedMatch struct {
	Src, Dst   *schema.Element
	Score      float64
	Annotation string
	ReviewedBy string
	TaskID     int
}

// Task is one increment of the concept-at-a-time workflow: match one
// source concept against the entire opposing schema.
type Task struct {
	ID      int
	Concept *summarize.Concept
	// AssignedTo is the team member responsible, "" if unassigned.
	AssignedTo string
	Status     TaskStatus
	// CandidatesConsidered is |concept members| × |target schema|: the
	// size of the increment (the paper reports 10^4-10^5 per increment).
	CandidatesConsidered int
	// Reviewed is the number of candidates that crossed the confidence
	// filter and were put in front of the reviewer.
	Reviewed int
	// Accepted is the number of validated matches produced.
	Accepted int
}

// Session drives the matching phase for one schema pair. Create with
// NewSession; not safe for concurrent use (a session models one team's
// shared state; run concurrent teams with separate sessions).
type Session struct {
	engine    *core.Engine
	srcView   *core.SchemaView
	dstView   *core.SchemaView
	summary   *summarize.Summary
	threshold float64
	tasks     []*Task
	accepted  []ValidatedMatch
}

// NewSession preprocesses both schemata once and builds the task queue
// from the source summary: one task per concept, largest concepts first
// (engineers triage big concepts early to surface risk).
func NewSession(engine *core.Engine, src, dst *schema.Schema, srcSummary *summarize.Summary, threshold float64) (*Session, error) {
	if srcSummary.Schema != src {
		return nil, fmt.Errorf("workflow: summary is for schema %q, not %q", srcSummary.Schema.Name, src.Name)
	}
	sv, dv := core.Preprocess(src, dst)
	s := &Session{
		engine:    engine,
		srcView:   sv,
		dstView:   dv,
		summary:   srcSummary,
		threshold: threshold,
	}
	concepts := append([]*summarize.Concept(nil), srcSummary.Concepts()...)
	sort.Slice(concepts, func(i, j int) bool {
		if concepts[i].Size() != concepts[j].Size() {
			return concepts[i].Size() > concepts[j].Size()
		}
		return concepts[i].Label < concepts[j].Label
	})
	for i, c := range concepts {
		s.tasks = append(s.tasks, &Task{
			ID:                   i,
			Concept:              c,
			Status:               TaskPending,
			CandidatesConsidered: c.Size() * dst.Len(),
		})
	}
	return s, nil
}

// Tasks returns the task queue in execution order.
func (s *Session) Tasks() []*Task { return s.tasks }

// Task returns a task by ID.
func (s *Session) Task(id int) (*Task, error) {
	if id < 0 || id >= len(s.tasks) {
		return nil, fmt.Errorf("workflow: no task %d", id)
	}
	return s.tasks[id], nil
}

// Assign gives a task to a team member.
func (s *Session) Assign(taskID int, member string) error {
	t, err := s.Task(taskID)
	if err != nil {
		return err
	}
	if t.Status == TaskDone {
		return fmt.Errorf("workflow: task %d already done", taskID)
	}
	t.AssignedTo = member
	return nil
}

// Distribute assigns all pending tasks across team members, balancing the
// expected review workload (greedy longest-processing-time bin packing on
// candidate counts) — the paper's "divide very large matching workflows
// into modular task queues appropriate to each team member".
func (s *Session) Distribute(members []string) error {
	if len(members) == 0 {
		return fmt.Errorf("workflow: no team members")
	}
	load := make([]int, len(members))
	// tasks are already sorted by size descending
	for _, t := range s.tasks {
		if t.Status != TaskPending || t.AssignedTo != "" {
			continue
		}
		best := 0
		for i := 1; i < len(members); i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		t.AssignedTo = members[best]
		load[best] += t.CandidatesConsidered
	}
	return nil
}

// RunTask executes one increment: match the concept's members against the
// whole target schema, put every candidate above the session threshold in
// front of the reviewer, and record accepted matches. The reviewer must be
// the assigned member if the task is assigned.
func (s *Session) RunTask(taskID int, reviewer Reviewer) (*Task, error) {
	t, err := s.Task(taskID)
	if err != nil {
		return nil, err
	}
	if t.Status == TaskDone {
		return nil, fmt.Errorf("workflow: task %d already done", taskID)
	}
	if t.AssignedTo != "" && reviewer.Name() != t.AssignedTo {
		return nil, fmt.Errorf("workflow: task %d assigned to %q, reviewed by %q", taskID, t.AssignedTo, reviewer.Name())
	}
	t.Status = TaskInProgress
	// MatchScoped routes large increments through the sparse candidate
	// path when the engine has it configured; for dense engines it is
	// exactly the incremental MatchElements the workflow always used.
	res := s.engine.MatchScoped(s.srcView, s.dstView, t.Concept.Members)
	member := make(map[int]bool, len(t.Concept.Members))
	for _, m := range t.Concept.Members {
		member[m.ID] = true
	}
	for _, c := range core.SelectThreshold(res.Matrix, s.threshold) {
		if !member[c.Src] {
			continue
		}
		srcEl := s.srcView.View(c.Src).El
		dstEl := s.dstView.View(c.Dst).El
		t.Reviewed++
		d := reviewer.Review(srcEl, dstEl, c.Score)
		if !d.Accept {
			continue
		}
		t.Accepted++
		s.accepted = append(s.accepted, ValidatedMatch{
			Src: srcEl, Dst: dstEl, Score: c.Score,
			Annotation: d.Annotation, ReviewedBy: reviewer.Name(), TaskID: t.ID,
		})
	}
	t.Status = TaskDone
	return t, nil
}

// RunAll executes every remaining task with the reviewers keyed by member
// name; unassigned tasks go to the first reviewer. It stops at the first
// error.
func (s *Session) RunAll(reviewers map[string]Reviewer, fallback Reviewer) error {
	for _, t := range s.tasks {
		if t.Status == TaskDone {
			continue
		}
		r := fallback
		if t.AssignedTo != "" {
			assigned, ok := reviewers[t.AssignedTo]
			if !ok {
				return fmt.Errorf("workflow: no reviewer for member %q", t.AssignedTo)
			}
			r = assigned
		}
		if r == nil {
			return fmt.Errorf("workflow: task %d has no reviewer", t.ID)
		}
		if _, err := s.RunTask(t.ID, r); err != nil {
			return err
		}
	}
	return nil
}

// Progress returns completed and total task counts.
func (s *Session) Progress() (done, total int) {
	for _, t := range s.tasks {
		if t.Status == TaskDone {
			done++
		}
	}
	return done, len(s.tasks)
}

// Accepted returns every validated match recorded so far, in review order.
func (s *Session) Accepted() []ValidatedMatch { return s.accepted }

// Correspondences converts the accepted matches to matrix-style
// correspondences (element IDs + scores) for downstream partition and
// export analysis.
func (s *Session) Correspondences() []core.Correspondence {
	out := make([]core.Correspondence, 0, len(s.accepted))
	for _, vm := range s.accepted {
		out = append(out, core.Correspondence{Src: vm.Src.ID, Dst: vm.Dst.ID, Score: vm.Score})
	}
	return out
}

// Views returns the session's preprocessed schema views.
func (s *Session) Views() (src, dst *core.SchemaView) { return s.srcView, s.dstView }
